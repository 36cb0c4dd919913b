// Package server implements touchserved: a JSON-over-HTTP serving
// subsystem in front of the touch package's immutable Index. It is the
// network boundary of the repository's serving story — prebuilt
// partitioned indexes behind a catalog of named, versioned, atomically
// hot-swappable datasets, with the per-request parallelism knobs of the
// join engine exposed at the API.
//
// # Endpoints
//
//	POST   /v1/datasets/{name}        load a dataset (JSON boxes or text), build its index in the background
//	GET    /v1/datasets               catalog listing: version, status, objects, StaticBytes
//	DELETE /v1/datasets/{name}        drop a dataset
//	POST   /v1/datasets/{name}/query  range | point | knn against the serving index version
//	POST   /v1/datasets/{name}/join   intersection / ε-distance join vs inline boxes or a named dataset
//	GET    /healthz                   liveness (503 while draining)
//	GET    /metrics                   Prometheus text: qps, in-flight, p50/p99 latency, rejects
//
// A join request with "Accept: application/x-ndjson" streams its pairs
// as newline-delimited JSON instead of buffering them: one `[a,b]` array
// per pair in the engine's emission order, then one `{"count":N}`
// trailer object marking a complete stream. Streaming joins run in O(1)
// result memory on the server, are exempt from the MaxJoinPairs response
// cap, and stop promptly when the client disconnects (the request
// context cancels the engine); a stream that ends without the trailer
// line was truncated by cancellation.
//
// # Hot swap
//
// Re-POSTing a name rebuilds its index in the background: readers keep
// the old version through an atomic snapshot pointer until the new one
// is ready, so a rebuild under sustained query load never produces an
// error or a mixed-version answer. Versions are monotonic per name and a
// slow stale build can never overwrite a newer one.
//
// # Admission control
//
// The server holds a fixed number of in-flight slots. A request that
// finds no slot free is rejected immediately with 429 rather than queued
// unboundedly. Each admitted request runs under a context deadline that
// is plumbed into the join engine: a join that outlives its budget gets
// 503 {"code":"timeout"}, a client that disconnects cancels the
// computation the same way, and in both cases the engine aborts
// cooperatively within a bounded number of comparisons — the admission
// slot frees as soon as the abort unwinds, never pinned behind an
// abandoned computation. Single-probe queries, whose engine calls run
// in microseconds, check the budget at the handler boundary instead of
// inside the engine. Joins whose buffered response would exceed
// MaxJoinPairs abort the same way (422 {"code":"result_too_large"})
// instead of materializing pairs that would only be thrown away.
// Request bodies are capped (413) and every error is structured JSON.
// BeginShutdown flips the server into draining: new work is rejected
// with 503 while in-flight requests complete (pair with
// http.Server.Shutdown to drain connections).
//
// The Server is an http.Handler; connection-level protection is the
// enclosing http.Server's job. Deployments must set ReadTimeout /
// ReadHeaderTimeout (as cmd/touchserved does): request bodies are
// decoded before the per-request processing budget applies, so without
// a read deadline a client trickling its body one byte at a time could
// pin an admission slot indefinitely.
package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/api"
	snapstore "touch/internal/snapshot"
	"touch/internal/trace"
)

// Config tunes the serving subsystem; the zero value is production-safe.
type Config struct {
	// MaxInFlight caps concurrently admitted /v1 requests; further
	// requests are rejected with 429. Default 64.
	MaxInFlight int
	// RequestTimeout is the per-request processing budget enforced via
	// context; an expired request gets 503 {"code":"timeout"}. Joins are
	// canceled mid-flight inside the engine; single-probe queries, whose
	// engine calls run in microseconds, check the budget at the handler
	// boundary instead. Default 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; larger ones get 413. Default 8 MiB.
	MaxBodyBytes int64
	// Workers is the default per-join parallelism; a join request's
	// "workers" field overrides it. Default 0 (single-threaded).
	Workers int
	// MaxPendingBuilds caps index builds accepted but not yet finished.
	// Builds run in the background, outside the request-slot admission
	// layer; without this cap a client looping POST /v1/datasets could
	// queue unbounded build goroutines, each pinning its decoded
	// dataset. Further loads get 429. Default 16.
	MaxPendingBuilds int
	// MaxJoinPairs caps the pairs one buffered join response carries. A
	// join can legitimately produce up to |A|·|B| pairs — far beyond any
	// body-size cap — so the engine runs with a result limit of this
	// many + 1 pairs and aborts cooperatively the moment the cap is
	// exceeded; the request is answered 422 {"code":"result_too_large"}
	// with no wasted materialization. count_only joins and NDJSON
	// streaming joins are exempt (the first carries no pairs, the second
	// never buffers them). Default 1<<20.
	MaxJoinPairs int
	// CompactThreshold is the per-dataset pending-update count (inserts
	// plus tombstones from PATCH /v1/datasets/{name}) at which a
	// background compaction folds the delta into a fresh base index
	// version. 0 means the 4096 default; negative disables automatic
	// compaction (updates still serve, merged on every read).
	CompactThreshold int
	// DataDir, when set, makes the catalog durable: every successful
	// build persists a checksummed snapshot there before it becomes
	// visible, DELETE removes the file, and Server.Recover restores the
	// catalog from the directory at startup — no rebuilds. Empty
	// disables persistence (the pre-existing in-memory behavior).
	DataDir string
	// SlowQueryThreshold enables the forensic slow-query log: every
	// admitted request (HTTP or wire) that takes at least this long is
	// recorded — request ID, class, status, full phase span — in a
	// bounded ring served by GET /debug/slowlog and dumped on SIGUSR1 by
	// cmd/touchserved. 0 disables the log.
	SlowQueryThreshold time.Duration
	// Logger receives operational log records (snapshot persistence
	// failures, recovery progress, slow and failed requests). Default
	// discards them.
	Logger *slog.Logger
	// NodeID names this server instance in the wire hello info string
	// (as a "node/<id>" token), so routing tiers can label a backend
	// stably across address changes. Deployments that learn their
	// address only after binding the wire listener can set it late with
	// SetNodeID. Empty omits the token.
	NodeID string

	// build replaces touch.BuildIndex in tests (slow/observable builds).
	build buildFunc
	// snapFS replaces the real filesystem under DataDir in fault-injection
	// tests.
	snapFS snapstore.FS
}

func (c *Config) fillDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxPendingBuilds <= 0 {
		c.MaxPendingBuilds = 16
	}
	if c.MaxJoinPairs <= 0 {
		c.MaxJoinPairs = 1 << 20
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = touch.DefaultCompactThreshold
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// maxRequestWorkers bounds request-supplied parallelism: the engine
// allocates per-worker counters, sinks and goroutines proportional to
// the count, so an unclamped value is a one-request out-of-memory.
// Anything beyond a few times the core count only adds overhead.
var maxRequestWorkers = 4 * runtime.GOMAXPROCS(0)

func clampWorkers(w int) int {
	if w > maxRequestWorkers {
		return maxRequestWorkers
	}
	return w
}

// maxLocalCells bounds the request-supplied local-join grid resolution:
// join-time grids are sized per dimension from this value, so an
// unclamped config could demand cells³ cell bookkeeping (the paper's
// evaluated setting is 500).
const maxLocalCells = 4096

// Server is the HTTP serving subsystem. Create with New, mount as an
// http.Handler, and call BeginShutdown before http.Server.Shutdown for a
// graceful drain.
type Server struct {
	cfg      Config
	cat      *catalog
	met      *metrics
	slots    chan struct{}
	draining atomic.Bool

	// persist mirrors the catalog to Config.DataDir; nil when no data
	// dir is configured or the directory could not be opened (the error
	// is kept for Recover to report).
	persist    *persister
	persistErr error

	// wire tracks the binary-protocol listeners and connections; see
	// bin.go for the serving loop and ShutdownWire for the drain.
	wire wireState

	// slow is the bounded slow-query ring; nil when
	// Config.SlowQueryThreshold is 0.
	slow *slowLog

	// nodeID is the instance name advertised in the wire hello; atomic
	// because SetNodeID may race with connections handshaking.
	nodeID atomic.Pointer[string]

	// testHookWorker, when set, runs inside query and join handlers
	// before the engine call, under the request context — tests block it
	// to hold requests in flight or to park them past their deadline.
	testHookWorker func(context.Context)
}

// New returns a Server ready to serve; it owns no listener. With
// Config.DataDir set, call Recover before serving traffic to restore
// the catalog from disk — builds persist from the first load either
// way. A data dir that cannot be opened does not fail construction (New
// has no error return and the server can still serve in-memory); the
// error surfaces from Recover, which deployments run at startup.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		cat:   newCatalog(cfg.build),
		met:   newMetrics(),
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
	s.cat.compactAt = cfg.CompactThreshold
	if cfg.NodeID != "" {
		s.SetNodeID(cfg.NodeID)
	}
	s.wire.lns = make(map[net.Listener]struct{})
	s.wire.conns = make(map[net.Conn]context.CancelFunc)
	if cfg.SlowQueryThreshold > 0 {
		s.slow = &slowLog{threshold: cfg.SlowQueryThreshold}
	}
	if cfg.DataDir != "" {
		fsys := cfg.snapFS
		if fsys == nil {
			fsys = snapstore.OSFS{}
		}
		store, err := snapstore.NewStore(cfg.DataDir, fsys)
		if err != nil {
			s.persistErr = err
			cfg.Logger.Error("snapshot: opening data dir failed, serving without persistence",
				"dir", cfg.DataDir, "err", err)
		} else {
			s.persist = &persister{store: store, cat: s.cat, log: cfg.Logger, written: make(map[string]int64)}
			s.cat.persist = s.persist
		}
	}
	return s
}

// SetNodeID (re)names this instance in the wire hello info string.
// Callers that derive the ID from a bound listener address set it after
// net.Listen and before ServeWire; connections already past their
// handshake keep the hello they saw. Whitespace is rewritten to "-" —
// the hello info is a space-separated token list.
func (s *Server) SetNodeID(id string) {
	id = strings.Join(strings.Fields(id), "-")
	s.nodeID.Store(&id)
}

// helloInfo is the info string of the server's wire hello: the build
// string, plus a "node/<id>" token naming this instance when one is
// configured.
func (s *Server) helloInfo() string {
	info := BuildInfo()
	if id := s.nodeID.Load(); id != nil && *id != "" {
		info += " node/" + *id
	}
	return info
}

// logger returns the configured operational logger (never nil).
func (s *Server) logger() *slog.Logger { return s.cfg.Logger }

// Load registers a dataset and builds its index synchronously — the
// programmatic preload path used by touchserved -load, the benchmark
// suite and the examples. HTTP loads build in the background instead.
func (s *Server) Load(name string, ds touch.Dataset, cfg touch.TOUCHConfig) (version int64, stats touch.IndexStats) {
	v, _ := s.cat.load(name, ds, cfg, true, 0) // synchronous: no backlog cap
	// The snapshot can lag v only if a concurrent load superseded this
	// one before it built; report whatever version is serving.
	if snap, _ := s.cat.snapshot(name); snap != nil {
		stats = snap.stats
	}
	return v, stats
}

// BeginShutdown puts the server into draining: every new request —
// including healthz, so load balancers stop routing here — is answered
// with 503 {"code":"draining"} while admitted requests run to
// completion. Follow with http.Server.Shutdown to drain connections.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// statusRecorder captures the response status for metrics and forwards
// Flush so the NDJSON streaming path can push pairs through the
// net/http buffer as they are produced.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// reject answers a request that never reached a handler — unknown
// route, wrong method, bad dataset name — and records it under the
// "other" class: a scanner flood answered at the routing layer must be
// visible in /metrics, not read as an idle server.
func (s *Server) reject(w http.ResponseWriter, code, format string, args ...any) {
	e := api.Errorf(code, format, args...)
	s.met.requests[classOther].Add(1)
	s.met.responses[classOther][codeIndex(api.Status(code))].Add(1)
	api.WriteError(w, e)
}

// ServeHTTP routes requests. Routing is by hand — seven routes — so
// unknown paths and wrong methods get the same structured JSON errors as
// everything else.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		s.handleHealthz(w, r)
	case path == "/metrics":
		s.handleMetrics(w, r)
	case path == "/version":
		s.handleVersion(w, r)
	case path == "/debug/slowlog":
		s.handleSlowlog(w, r)
	case path == "/v1/datasets":
		if r.Method != http.MethodGet {
			s.reject(w, api.CodeMethod, "use GET on /v1/datasets")
			return
		}
		s.admit(classCatalog, w, r, "", s.handleList)
	case strings.HasPrefix(path, "/v1/datasets/"):
		rest := strings.TrimPrefix(path, "/v1/datasets/")
		name, action, _ := strings.Cut(rest, "/")
		if !api.ValidName(name) {
			s.reject(w, api.CodeInvalidName,
				"dataset name must be 1-128 chars of [A-Za-z0-9._-], got %q", name)
			return
		}
		switch action {
		case "":
			switch r.Method {
			case http.MethodPost:
				s.admit(classLoad, w, r, name, s.handleLoad)
			case http.MethodPatch:
				s.admit(classUpdate, w, r, name, s.handleUpdate)
			case http.MethodDelete:
				s.admit(classCatalog, w, r, name, s.handleDelete)
			default:
				s.reject(w, api.CodeMethod, "use POST, PATCH or DELETE on /v1/datasets/{name}")
			}
		case "query":
			if r.Method != http.MethodPost {
				s.reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/query")
				return
			}
			s.admit(classQuery, w, r, name, s.handleQuery)
		case "join":
			if r.Method != http.MethodPost {
				s.reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/join")
				return
			}
			s.admit(classJoin, w, r, name, s.handleJoin)
		default:
			s.reject(w, api.CodeNotFound, "unknown action %q", action)
		}
	default:
		s.reject(w, api.CodeNotFound, "no route for %s", path)
	}
}

// handlerFn serves one admitted request; name is the dataset named by
// the route, empty on /v1/datasets.
type handlerFn func(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, name string)

// reqInfo is the per-request observability state admit hands its
// handler: the server-assigned request ID, whether the client opted
// into the trace in its response, and the executor state (span and
// dataset counters) admit's completion hook folds into the metrics.
type reqInfo struct {
	id     string
	traced bool
	call
}

// traceHeader is the opt-in request header: "X-Touch-Trace: 1" adds the
// span breakdown to the JSON response of a query or buffered join.
const traceHeader = "X-Touch-Trace"

// requestIDHeader carries the server-assigned request ID on every
// admitted response, so any error a client logs names a request the
// slow log and server logs can be searched for.
const requestIDHeader = "X-Touch-Request-Id"

// admit is the admission-control front door for all /v1 traffic: it
// rejects during drain (503) or when every in-flight slot is taken
// (429), caps the request body, arms the per-request deadline and
// records metrics. The slot is held exactly for the handler's lifetime —
// a canceled request's engine work aborts cooperatively inside the
// handler, so there is no abandoned computation for the slot to follow.
func (s *Server) admit(class int, w http.ResponseWriter, r *http.Request, name string, h handlerFn) {
	s.met.requests[class].Add(1)
	sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	admitted := false
	ri := &reqInfo{id: nextRequestID(), traced: r.Header.Get(traceHeader) == "1"}
	ri.span.RequestID = ri.id
	// Duration histograms only see admitted requests: microsecond-fast
	// 429s and drain rejections would otherwise drag the reported
	// p50/p99 toward zero exactly when the server is overloaded.
	defer func() {
		d := time.Since(start)
		s.met.observe(class, sr.status, d, admitted)
		if admitted {
			s.met.observeSpan(&ri.span)
			ri.ds.add(&ri.span)
			s.noteSlow(&ri.span, class, sr.status, d)
			if sr.status >= 500 {
				s.logger().Error("request failed",
					"id", ri.id, "class", classNames[class], "status", sr.status,
					"duration_ms", float64(d)/1e6)
			} else if sr.status >= 400 {
				s.logger().Debug("request rejected",
					"id", ri.id, "class", classNames[class], "status", sr.status)
			}
		}
	}()

	if s.draining.Load() {
		s.met.rejectDraining.Add(1)
		api.WriteError(sr, errDraining)
		return
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.met.rejectOverload.Add(1)
		api.WriteError(sr, api.Errorf(api.CodeOverload,
			"server at its %d-request in-flight cap", s.cfg.MaxInFlight))
		return
	}
	ri.span.Add(trace.PhaseAdmission, time.Since(start))
	s.met.inFlight.Add(1)
	admitted = true
	defer func() {
		<-s.slots
		s.met.inFlight.Add(-1)
	}()

	sr.Header().Set(requestIDHeader, ri.id)
	r.Body = http.MaxBytesReader(sr, r.Body, s.cfg.MaxBodyBytes)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	h(ctx, ri, sr, r.WithContext(ctx), name)
}

// --- health & metrics ---------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status        string  `json:"status"`
		Datasets      int     `json:"datasets"`
		InFlight      int64   `json:"in_flight"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	h := health{
		Status:        "ok",
		Datasets:      s.cat.size(),
		InFlight:      s.met.inFlight.Load(),
		UptimeSeconds: time.Since(s.met.start).Seconds(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		api.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	api.WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.cat.list(), s.SnapshotErrors(),
		s.cat.compactions.Load(), s.cat.compactionsSkipped.Load())
}

// handleVersion answers GET /version with the build description — the
// HTTP twin of the wire hello's informational field.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, api.CodeMethod, "use GET on /version")
		return
	}
	api.WriteJSON(w, http.StatusOK, VersionInfo())
}

// handleSlowlog answers GET /debug/slowlog with the recorded slow
// requests, newest first, full phase spans included. Like /metrics it
// bypasses admission — it must answer even when every slot is pinned,
// which is exactly when someone reads it.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, api.CodeMethod, "use GET on /debug/slowlog")
		return
	}
	if s.slow == nil {
		api.WriteError(w, api.Errorf(api.CodeNotFound,
			"slow-query log disabled; start touchserved with -slow-query-ms"))
		return
	}
	entries, total := s.slow.snapshot()
	out := struct {
		ThresholdMs float64         `json:"threshold_ms"`
		Recorded    int64           `json:"recorded"`
		Entries     []slowEntryJSON `json:"entries"`
	}{
		ThresholdMs: float64(s.slow.threshold) / 1e6,
		Recorded:    total,
		Entries:     make([]slowEntryJSON, len(entries)),
	}
	for i, e := range entries {
		out.Entries[i] = slowEntryToJSON(e)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// --- catalog ------------------------------------------------------------

func (s *Server) handleList(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, _ string) {
	api.WriteJSON(w, http.StatusOK, struct {
		Datasets []datasetInfo `json:"datasets"`
	}{Datasets: s.cat.list()})
}

func (s *Server) handleDelete(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, name string) {
	retired, ok := s.cat.drop(name)
	if !ok {
		api.WriteError(w, errUnknown(name))
		return
	}
	if s.persist != nil {
		s.persist.delete(name, retired)
	}
	api.WriteJSON(w, http.StatusOK, struct {
		Name    string `json:"name"`
		Deleted bool   `json:"deleted"`
	}{Name: name, Deleted: true})
}

// loadRequest is the JSON body of POST /v1/datasets/{name}.
type loadRequest struct {
	// Boxes holds one [minX minY minZ maxX maxY maxZ] row per object.
	Boxes [][]float64 `json:"boxes"`
	// Config tunes the TOUCH tree built over the dataset.
	Config struct {
		Partitions int `json:"partitions"`
		Fanout     int `json:"fanout"`
		LocalCells int `json:"local_cells"`
		Workers    int `json:"workers"`
	} `json:"config"`
}

func (s *Server) handleLoad(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, name string) {
	ds, cfg, e := s.decodeLoad(r)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	// Builds run in the background and outlive the request's admission
	// slot; the catalog reserves a backlog slot atomically so load
	// floods degrade into 429s too.
	version, accepted := s.cat.load(name, ds, cfg, false, s.cfg.MaxPendingBuilds)
	if !accepted {
		s.met.rejectOverload.Add(1)
		api.WriteError(w, api.Errorf(api.CodeOverload,
			"server at its %d-build backlog cap", s.cfg.MaxPendingBuilds))
		return
	}
	api.WriteJSON(w, http.StatusAccepted, struct {
		Name    string `json:"name"`
		Version int64  `json:"version"`
		Status  string `json:"status"`
		Objects int    `json:"objects"`
	}{Name: name, Version: version, Status: "building", Objects: len(ds)})
}

// decodeLoad decodes a load body — JSON boxes with a build config, or a
// text dataset — into the dataset and the clamped build configuration.
func (s *Server) decodeLoad(r *http.Request) (touch.Dataset, touch.TOUCHConfig, *api.Error) {
	cfg := touch.TOUCHConfig{Workers: s.cfg.Workers}
	switch ct := r.Header.Get("Content-Type"); {
	case strings.HasPrefix(ct, "application/json"):
		var req loadRequest
		if e := api.DecodeJSON(r, &req); e != nil {
			return nil, cfg, e
		}
		boxes, e := api.Boxes(req.Boxes, "box")
		if e != nil {
			return nil, cfg, e
		}
		ds, err := touch.DatasetFromBoxes(boxes)
		if err != nil {
			return nil, cfg, api.Errorf(api.CodeInvalidBox, "%v", err)
		}
		// The engine treats fanout 1 as a programming error (the tree
		// would never converge to a root) and panics — a background
		// build panic would kill the process, so reject it here.
		if req.Config.Fanout == 1 {
			return nil, cfg, api.Errorf(api.CodeBadRequest, "config.fanout must be 0 (default) or >= 2")
		}
		cfg.Partitions = req.Config.Partitions
		cfg.Fanout = req.Config.Fanout
		cfg.LocalCells = min(req.Config.LocalCells, maxLocalCells)
		if w := clampWorkers(req.Config.Workers); w > 0 {
			cfg.Workers = w
		}
		return ds, cfg, nil
	case ct == "" || strings.HasPrefix(ct, "text/"):
		ds, err := touch.ReadDataset(r.Body)
		if err != nil {
			return nil, cfg, api.DecodeError(err)
		}
		return ds, cfg, nil
	default:
		return nil, cfg, api.Errorf(api.CodeUnsupported,
			"content type %q: send application/json boxes or a text/plain dataset", ct)
	}
}

func (s *Server) handleUpdate(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, name string) {
	var req api.UpdateRequest
	e := api.DecodeJSON(r, &req)
	var inserts []touch.Box
	if e == nil {
		inserts, e = api.Boxes(req.Insert, "insert")
	}
	var res updResult
	if e == nil {
		res, e = s.update(ctx, name, inserts, req.Delete)
	}
	if e != nil {
		api.WriteError(w, e)
		return
	}
	ids := make([]touch.ID, res.inserted)
	for i := range ids {
		ids[i] = touch.ID(res.firstID) + touch.ID(i)
	}
	api.WriteJSON(w, http.StatusOK, api.UpdateResponse{
		Name: name, Version: res.version, InsertedIDs: ids, Deleted: res.deleted,
		DeltaInserts: res.deltaIns, DeltaTombstones: res.deltaTomb,
	})
}

// --- query --------------------------------------------------------------

// spanTrace renders a span as the X-Touch-Trace response field.
func spanTrace(sp *touch.Span) *api.Trace {
	return &api.Trace{
		RequestID:   sp.RequestID,
		PhaseNs:     spanPhaseNs(sp),
		Comparisons: sp.Comparisons,
		NodeTests:   sp.NodeTests,
		Filtered:    sp.Filtered,
		Results:     sp.Results,
		Replicas:    sp.Replicas,
		Cancel:      trace.CancelName(sp.Cancel),
	}
}

func (s *Server) handleQuery(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, name string) {
	decStart := time.Now()
	var req api.QueryRequest
	e := api.DecodeJSON(r, &req)
	var q api.Query
	if e == nil {
		q, e = req.Query()
	}
	if e != nil {
		api.WriteError(w, e)
		return
	}
	ri.span.Add(trace.PhaseDecode, time.Since(decStart))
	version, ids, nbrs, e := s.query(ctx, &ri.call, []byte(name), &q)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	resp := api.NewQueryResponse(name, version, q.Type, ids, nbrs)
	if ri.traced {
		resp.Trace = spanTrace(&ri.span)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// --- join ---------------------------------------------------------------

// ndjsonContentType is the media type selecting (and labelling) the
// streaming join response.
const ndjsonContentType = "application/x-ndjson"

// wantsNDJSON reports whether the Accept header names the NDJSON media
// type as acceptable — listed as a proper token (not a substring) and
// not explicitly refused with q=0. Full content negotiation is not
// attempted; the buffered JSON answer is the default for everything
// else.
func wantsNDJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mediaType != ndjsonContentType {
			continue
		}
		if qs, ok := params["q"]; ok {
			if q, err := strconv.ParseFloat(qs, 64); err == nil && q <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

func (s *Server) handleJoin(ctx context.Context, ri *reqInfo, w http.ResponseWriter, r *http.Request, name string) {
	decStart := time.Now()
	var req api.JoinRequest
	e := api.DecodeJSON(r, &req)
	var boxes []touch.Box
	if e == nil && req.Boxes != nil {
		boxes, e = api.Boxes(req.Boxes, "box")
	}
	if e != nil {
		api.WriteError(w, e)
		return
	}
	ri.span.Add(trace.PhaseDecode, time.Since(decStart))
	var probe []byte
	if req.Probe != "" {
		probe = []byte(req.Probe)
	}
	p, e := s.prepareJoin(ctx, &ri.call, []byte(name), probe, boxes, req.Eps, req.Workers)
	if e != nil {
		api.WriteError(w, e)
		return
	}

	if !req.CountOnly && wantsNDJSON(r.Header.Get("Accept")) {
		s.streamJoin(ctx, ri, w, &p)
		return
	}

	// The buffered path runs with a result limit one past the response
	// cap: a join that would blow the cap aborts cooperatively right
	// there, instead of materializing |A|·|B| pairs to throw away.
	// count_only joins carry no pairs, so their count stays exact and
	// uncapped.
	limit := int64(0)
	if !req.CountOnly {
		limit = int64(s.cfg.MaxJoinPairs) + 1
	}
	res, e := s.runJoin(ctx, &ri.call, &p, req.CountOnly, limit)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	resp := api.JoinResponse{
		Dataset: name, Version: p.snap.version,
		Probe: req.Probe, ProbeVersion: p.probeVersion, ProbeObjects: len(p.probe),
		Count: res.Stats.Results,
	}
	if !req.CountOnly {
		if res.Stats.Results > int64(s.cfg.MaxJoinPairs) {
			s.met.rejectLimited.Add(1)
			api.WriteError(w, api.Errorf(api.CodeResultTooLarge,
				"join exceeds the %d-pair response cap; use count_only, the %s streaming mode, or a narrower probe",
				s.cfg.MaxJoinPairs, ndjsonContentType))
			return
		}
		resp.Pairs = api.SortedPairs(res.Pairs)
	}
	resp.Stats = &api.JoinStats{
		Comparisons: res.Stats.Comparisons,
		NodeTests:   res.Stats.NodeTests,
		Filtered:    res.Stats.Filtered,
		MemoryBytes: res.Stats.MemoryBytes,
		AssignNs:    res.Stats.AssignTime.Nanoseconds(),
		JoinNs:      res.Stats.JoinTime.Nanoseconds(),
	}
	if ri.traced {
		resp.Trace = spanTrace(&ri.span)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// streamFlushEvery is how many NDJSON pair lines are written between
// explicit flushes at full production rate — rare enough that the
// syscall cost disappears. Slow producers are covered separately: the
// first line flushes eagerly (so the client sees the stream start) and
// a timer goroutine bounds how stale pending lines may get.
const streamFlushEvery = 4096

// streamFlushInterval caps the time pairs may sit in the stream buffer
// when the join produces them slowly or in bursts with long gaps — the
// timer fires independently of the next pair's arrival, keeping
// trickling results moving and intermediary idle-body timeouts at bay.
const streamFlushInterval = 250 * time.Millisecond

// streamJoin answers a join with Accept: application/x-ndjson by
// streaming one `[a,b]` line per pair straight off the engine's
// iterator — O(1) server memory, no response cap — and a `{"count":N}`
// trailer line after a complete join. Client disconnect or deadline
// expiry cancels the engine mid-stream; the truncated stream simply
// ends without the trailer (the status line is long gone), and the
// abort is recorded under its own reject reason.
func (s *Server) streamJoin(ctx context.Context, ri *reqInfo, w http.ResponseWriter, p *joinPlan) {
	// Last boundary check before the 200 goes on the wire: a request
	// whose budget is already gone (or whose client already left) gets
	// the same 503/499 the buffered path would give, not an empty
	// trailer-less 200.
	if ctx.Err() != nil {
		api.WriteError(w, s.aborted(ctx))
		return
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64<<10)
	flusher, _ := w.(http.Flusher)

	// All writer access — pair lines, count-based flushes and the timer
	// goroutine's staleness flushes — runs under one mutex: the
	// ResponseWriter is not safe for concurrent use. The per-pair lock
	// is uncontended except at the 4 Hz the timer fires.
	var mu sync.Mutex
	dirty := false
	flushLocked := func() {
		_ = bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
		dirty = false
	}
	stopTimer := make(chan struct{})
	timerDone := make(chan struct{})
	go func() {
		defer close(timerDone)
		t := time.NewTicker(streamFlushInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				mu.Lock()
				if dirty {
					flushLocked()
				}
				mu.Unlock()
			case <-stopTimer:
				return
			}
		}
	}()
	// The timer goroutine must be gone before the handler returns — a
	// flush racing the handler's exit would write a dead ResponseWriter.
	defer func() {
		close(stopTimer)
		<-timerDone
	}()

	n := int64(0)
	for pair, err := range p.snap.engine().JoinSeq(ctx, p.probe, p.options(&ri.call)) {
		if err != nil {
			// Mid-stream failure: the 200 is already on the wire, so the
			// truncation is the signal — plus, for cancellations, the
			// reject metric joinError records. (A non-cancellation engine
			// error is unreachable: eps was validated by prepareJoin.)
			s.joinError(ctx, err)
			mu.Lock()
			_ = bw.Flush()
			mu.Unlock()
			return
		}
		mu.Lock()
		fmt.Fprintf(bw, "[%d,%d]\n", pair.A, pair.B)
		dirty = true
		if n++; n == 1 || n%streamFlushEvery == 0 {
			flushLocked()
		}
		mu.Unlock()
	}
	mu.Lock()
	fmt.Fprintf(bw, "{\"count\":%d}\n", n)
	_ = bw.Flush()
	mu.Unlock()
}
