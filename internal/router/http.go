package router

// The router's HTTP front: the same /v1 surface touchserved exposes,
// answered by proxying over the binary wire protocol to the ring
// owners. Requests are decoded, validated and answered with the
// server's own JSON codec (internal/api), so for queries, updates and
// client errors a router answer is byte-for-byte a direct backend
// answer. The remaining differences, listed in README.md:
//
//   - Joins carry no "stats" object and no trace: the wire protocol does
//     not stream the engine's join statistics.
//   - A named-probe join reports "probe_objects":0 and no
//     "probe_version": the wire's join answer does not carry them.
//   - Answers carry no X-Touch-Request-Id header, X-Touch-Trace is
//     ignored, and joins are always buffered (no NDJSON streaming and no
//     pair cap).
//   - The body cap is maxBodyBytes, and a join that names no probe (or
//     both) on an unknown dataset is a 400 here, a 404 on a backend:
//     the probe side is checked before forwarding.
//   - no_backend, not_routable and the router's own timeout are errors
//     only the router raises.
//   - GET /v1/datasets is the merged, provenance-annotated catalog —
//     a router-specific shape, not one backend's listing.
//   - Loads and deletes are not routed: dataset placement is by name,
//     but load bodies are huge and replication policy (load to every
//     owner) belongs to the operator's loader, not a blind proxy.

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"touch"
	"touch/client"
	"touch/internal/api"
)

// maxBodyBytes caps proxied request bodies (queries, joins, updates).
const maxBodyBytes = 64 << 20

// proxyError maps a forwarding failure onto the error vocabulary, for
// both fronts: backend answers keep their own code and message,
// connection-level exhaustion is no_backend, context expiry the usual
// timeout / client_closed pair.
func proxyError(err error) *api.Error {
	var se *client.ServerError
	switch {
	case errors.As(err, &se):
		return &api.Error{Code: se.Code, Message: se.Message}
	case IsNoBackend(err):
		// Checked before the context cases: the last owner's failure it
		// wraps may be a dial's own deadline, not the caller's budget.
	case errors.Is(err, context.DeadlineExceeded):
		return &api.Error{Code: api.CodeTimeout, Message: "request exceeded the router's processing budget"}
	case errors.Is(err, context.Canceled):
		return &api.Error{Code: api.CodeClientClosed, Message: "request canceled by client"}
	}
	return &api.Error{Code: api.CodeNoBackend, Message: err.Error()}
}

// ServeHTTP is the router's HTTP surface: /healthz, /metrics, and the
// proxied /v1/datasets routes.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch path {
	case "/healthz":
		rt.handleHealthz(w)
		return
	case "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.RenderMetrics(w)
		return
	case "/v1/datasets":
		if r.Method != http.MethodGet {
			api.WriteError(w, api.Errorf(api.CodeMethod, "use GET on /v1/datasets"))
			return
		}
		rt.handleCatalog(w, r)
		return
	}
	rest, ok := strings.CutPrefix(path, "/v1/datasets/")
	if !ok {
		api.WriteError(w, api.Errorf(api.CodeNotFound, "unknown route %q", path))
		return
	}
	name, action, _ := strings.Cut(rest, "/")
	if !api.ValidName(name) {
		api.WriteError(w, api.Errorf(api.CodeInvalidName,
			"dataset name must be 1-128 chars of [A-Za-z0-9._-], got %q", name))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	switch action {
	case "":
		switch r.Method {
		case http.MethodPatch:
			rt.handleUpdate(ctx, w, r, name)
		case http.MethodPost, http.MethodDelete:
			api.WriteError(w, api.Errorf(api.CodeNotRoutable,
				"the router does not proxy dataset loads or deletes; address the owning backends directly (owners of %q: %s)",
				name, strings.Join(rt.Owners(name), ", ")))
		default:
			api.WriteError(w, api.Errorf(api.CodeMethod, "use PATCH on /v1/datasets/{name}"))
		}
	case "query":
		if r.Method != http.MethodPost {
			api.WriteError(w, api.Errorf(api.CodeMethod, "use POST on /v1/datasets/{name}/query"))
			return
		}
		rt.handleQuery(ctx, w, r, name)
	case "join":
		if r.Method != http.MethodPost {
			api.WriteError(w, api.Errorf(api.CodeMethod, "use POST on /v1/datasets/{name}/join"))
			return
		}
		rt.handleJoin(ctx, w, r, name)
	default:
		api.WriteError(w, api.Errorf(api.CodeNotFound, "unknown action %q", action))
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter) {
	healthy := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		// A router with zero live backends cannot serve anything; tell
		// the load balancer to stop sending traffic here.
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, struct {
		Status   string `json:"status"`
		Backends int    `json:"backends"`
		Healthy  int    `json:"healthy"`
	}{Status: map[bool]string{true: "ok", false: "no_backends"}[healthy > 0], Backends: len(rt.backends), Healthy: healthy})
}

func (rt *Router) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) {
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
	version, ids, nbrs, err := rt.Query(ctx, name, q)
	if err != nil {
		api.WriteError(w, proxyError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.NewQueryResponse(name, version, q.Type, ids, nbrs))
}

func (rt *Router) handleJoin(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) {
	var req api.JoinRequest
	e := api.DecodeJSON(r, &req)
	spec := client.JoinSpec{Probe: req.Probe, Eps: req.Eps, Workers: req.Workers}
	if e == nil && req.Boxes != nil {
		spec.Boxes, e = api.Boxes(req.Boxes, "box")
	}
	if e == nil {
		e = api.CheckProbeSide(req.Probe != "", req.Boxes != nil)
	}
	if e != nil {
		api.WriteError(w, e)
		return
	}
	resp := api.JoinResponse{Dataset: name, Probe: req.Probe, ProbeObjects: len(spec.Boxes)}
	var err error
	if req.CountOnly {
		resp.Version, resp.Count, err = rt.JoinCount(ctx, name, spec)
	} else {
		var pairs []touch.Pair
		resp.Version, pairs, resp.Count, err = rt.Join(ctx, name, spec)
		resp.Pairs = api.SortedPairs(pairs)
	}
	if err != nil {
		api.WriteError(w, proxyError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleUpdate(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) {
	var req api.UpdateRequest
	e := api.DecodeJSON(r, &req)
	spec := client.UpdateSpec{Delete: req.Delete}
	if e == nil {
		spec.Insert, e = api.Boxes(req.Insert, "insert")
	}
	if e == nil && len(req.Insert) == 0 && len(req.Delete) == 0 {
		e = api.Errorf(api.CodeBadRequest, "update needs insert rows or delete IDs")
	}
	if e != nil {
		api.WriteError(w, e)
		return
	}
	res, err := rt.Update(ctx, name, spec)
	if err != nil {
		api.WriteError(w, proxyError(err))
		return
	}
	api.WriteJSON(w, http.StatusOK, api.UpdateResponse{
		Name: name, Version: res.Version, InsertedIDs: res.InsertedIDs, Deleted: res.Deleted,
		DeltaInserts: res.DeltaInserts, DeltaTombstones: res.DeltaTombstones,
	})
}

// --- catalog --------------------------------------------------------------

type catalogRowJSON struct {
	Name            string `json:"name"`
	Version         int64  `json:"version"`
	Status          string `json:"status"`
	Objects         int64  `json:"objects"`
	StaticBytes     int64  `json:"static_bytes"`
	Persisted       bool   `json:"persisted"`
	DeltaInserts    int    `json:"delta_inserts,omitempty"`
	DeltaTombstones int    `json:"delta_tombstones,omitempty"`
	// Backends lists every backend reporting the dataset; Source names
	// the one whose row is shown (the primary owner when reachable).
	Backends []string `json:"backends"`
	Source   string   `json:"source"`
}

type failedBackendJSON struct {
	Backend string `json:"backend"`
	Error   string `json:"error"`
}

// handleCatalog answers GET /v1/datasets with the merged fleet catalog.
// Partial failure is first-class: rows from reachable backends are
// served, unreachable backends are named in failed_backends, and the
// "partial" flag says whether the listing may be incomplete.
func (rt *Router) handleCatalog(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	rows, failures := rt.Catalog(ctx)
	out := struct {
		Datasets       []catalogRowJSON    `json:"datasets"`
		Partial        bool                `json:"partial"`
		FailedBackends []failedBackendJSON `json:"failed_backends,omitempty"`
	}{Datasets: make([]catalogRowJSON, len(rows)), Partial: len(failures) > 0}
	for i, row := range rows {
		out.Datasets[i] = catalogRowJSON{
			Name:            row.Name,
			Version:         row.Version,
			Status:          row.Status,
			Objects:         row.Objects,
			StaticBytes:     row.StaticBytes,
			Persisted:       row.Persisted,
			DeltaInserts:    row.DeltaInserts,
			DeltaTombstones: row.DeltaTombstones,
			Backends:        row.Backends,
			Source:          row.Source,
		}
	}
	for _, f := range failures {
		out.FailedBackends = append(out.FailedBackends, failedBackendJSON{Backend: f.Backend, Error: f.Err.Error()})
	}
	api.WriteJSON(w, http.StatusOK, out)
}
