package server

// The binary protocol listener: the fast lane next to the HTTP handler.
// Frames (see internal/wire) arrive on persistent connections and are
// dispatched onto the same executor (exec.go), admission slots,
// deadlines and metrics as HTTP requests — the protocol changes, the
// server doesn't.
//
// Per connection there are two goroutines. The reader decodes frames
// and enqueues requests on a bounded channel; when the queue is full it
// stops reading, which backpressures the client through TCP instead of
// buffering unboundedly. Cancel frames are handled by the reader
// directly — it never blocks on request execution, so a cancel can
// overtake the queued requests ahead of it. The worker executes
// requests in arrival order and writes responses; because requests on
// one connection are answered in order, a pipelining client can match
// responses by tag without reordering. Writes are buffered and flushed
// only when the queue runs empty, so a deep pipeline amortizes one
// syscall over many responses — this batching is where the protocol's
// throughput comes from.
//
// Admission differs from HTTP in one deliberate way: a frame that finds
// every slot taken waits for one instead of failing with an overload
// error. Pipelined requests were already accepted into the connection's
// bounded queue, and the queue plus TCP backpressure bound the waiting
// work, so degrading into queueing (like a connection pool does) beats
// failing hundreds of in-flight requests at once.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/geom"
	"touch/internal/trace"
	"touch/internal/wire"
)

// wireQueueDepth bounds requests queued per connection past the one
// executing; a full queue stops the reader (TCP backpressure).
const wireQueueDepth = 256

// wirePairBatch is how many join pairs one OpPairs frame carries.
const wirePairBatch = 512

// wireStreamFlushEvery bounds how many OpPairs frames may sit in the
// write buffer mid-join before an explicit flush keeps the stream
// moving (the 64 KiB buffer also self-flushes when full).
const wireStreamFlushEvery = 16

// wireHandshakeTimeout caps the handshake; a dialer that never speaks
// cannot pin the connection goroutine.
const wireHandshakeTimeout = 10 * time.Second

// wireState tracks the binary listeners and connections for drain.
type wireState struct {
	mu      sync.RWMutex
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]context.CancelFunc
	stopped bool
	// reqs counts requests past the admission check; ShutdownWire waits
	// on it. The Add runs under mu.RLock with stopped checked, and Wait
	// only after stopped is set under mu.Lock, so Add can never race a
	// Wait that already saw zero.
	reqs   sync.WaitGroup
	connWG sync.WaitGroup
}

// wireBeginReq registers one in-flight binary request with the drain
// accounting; false means the server is shut down and the request must
// be rejected.
func (s *Server) wireBeginReq() bool {
	s.wire.mu.RLock()
	defer s.wire.mu.RUnlock()
	if s.wire.stopped {
		return false
	}
	s.wire.reqs.Add(1)
	return true
}

// ServeWire accepts binary-protocol connections on ln until the
// listener fails or ShutdownWire closes it (which returns nil). Run it
// on its own goroutine, one per listener.
func (s *Server) ServeWire(ln net.Listener) error {
	s.wire.mu.Lock()
	if s.wire.stopped {
		s.wire.mu.Unlock()
		ln.Close()
		return errors.New("server: ServeWire after ShutdownWire")
	}
	s.wire.lns[ln] = struct{}{}
	s.wire.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.wire.mu.Lock()
			delete(s.wire.lns, ln)
			stopped := s.wire.stopped
			s.wire.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		s.wire.connWG.Add(1)
		go s.serveWireConn(nc)
	}
}

// ShutdownWire drains the binary protocol: stops accepting, rejects new
// frames with a draining error, waits (bounded by ctx) for requests
// already admitted, then force-closes every connection and waits for
// their goroutines to unwind. Call BeginShutdown first when the HTTP
// side is draining too — the two are independent.
func (s *Server) ShutdownWire(ctx context.Context) error {
	s.wire.mu.Lock()
	s.wire.stopped = true
	for ln := range s.wire.lns {
		ln.Close()
	}
	s.wire.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wire.reqs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Force-close every connection and cancel its context so slot
	// waiters and engine calls abort cooperatively; the readers then
	// fail, the workers drain, and the connection goroutines exit —
	// admission slots are freed on that same unwind.
	s.wire.mu.Lock()
	for nc, cancel := range s.wire.conns {
		cancel()
		nc.Close()
	}
	s.wire.mu.Unlock()
	s.wire.connWG.Wait()
	return err
}

// wireReq is one decoded request frame waiting for the worker. The
// structs are recycled through binConn.free, and buf keeps its capacity
// across uses, so a steady pipeline allocates nothing per request.
type wireReq struct {
	op  byte
	tag uint32
	enq time.Time // enqueue time: queue wait counts against the budget
	buf []byte    // owned copy of the frame payload
}

// binConn is one binary-protocol connection.
type binConn struct {
	s *Server
	r *wire.Reader
	w *wire.Writer

	// ctx is the connection's lifetime: canceled at teardown and by
	// ShutdownWire so in-flight engine work and slot waits abort.
	ctx context.Context

	// wmu serializes frame writes — the worker owns the response
	// stream, but the reader writes fatal protocol errors.
	wmu sync.Mutex

	queue chan *wireReq
	free  chan *wireReq

	// mu guards the cancellation bookkeeping: pending maps every queued
	// tag to whether a cancel frame arrived for it, and curTag/curCancel
	// point at the join executing right now (queries finish in
	// microseconds and are not individually cancelable). A cancel for a
	// tag that is neither queued nor current is dropped, so a cancel
	// racing its own response can never poison a later request that
	// reuses the tag.
	mu        sync.Mutex
	pending   map[uint32]bool
	curTag    uint32
	curCancel context.CancelFunc

	// Worker-owned scratch reused across requests on this connection.
	scratch []byte
	pairBuf []geom.Pair

	// call is the current request's executor state, worker-owned and
	// reset per request — kept on the connection so the steady (untraced)
	// pipeline stays allocation-free. The span's RequestID is assigned
	// lazily, only when a request is traced or slow.
	call call
}

// ensureRequestID assigns the current request's ID if it does not have
// one yet, and returns it.
func (c *binConn) ensureRequestID() string {
	if c.call.span.RequestID == "" {
		c.call.span.RequestID = nextRequestID()
	}
	return c.call.span.RequestID
}

// respondTrace emits the non-terminal OpTrace frame carrying the
// current request's span; call it immediately before the terminal
// response of a traced request.
func (c *binConn) respondTrace(tag uint32) {
	c.ensureRequestID()
	c.scratch = wire.AppendTraceResp(c.scratch[:0], spanTraceResp(&c.call.span))
	c.respond(wire.OpTrace, tag, c.scratch)
}

// spanTraceResp converts an engine span to its wire form.
func spanTraceResp(sp *touch.Span) wire.TraceResp {
	r := wire.TraceResp{
		RequestID:   sp.RequestID,
		PhaseNs:     make([]int64, trace.NumPhases),
		Comparisons: sp.Comparisons,
		NodeTests:   sp.NodeTests,
		Filtered:    sp.Filtered,
		Results:     sp.Results,
		Replicas:    sp.Replicas,
		Cancel:      byte(sp.Cancel),
	}
	for i, d := range sp.Durations {
		r.PhaseNs[i] = int64(d)
	}
	return r
}

func (s *Server) serveWireConn(nc net.Conn) {
	defer s.wire.connWG.Done()
	defer nc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Register before the handshake so ShutdownWire can force-close a
	// connection that dials during drain and never completes its hello.
	s.wire.mu.Lock()
	if s.wire.stopped {
		s.wire.mu.Unlock()
		return
	}
	s.wire.conns[nc] = cancel
	s.wire.mu.Unlock()
	defer func() {
		s.wire.mu.Lock()
		delete(s.wire.conns, nc)
		s.wire.mu.Unlock()
	}()

	nc.SetDeadline(time.Now().Add(wireHandshakeTimeout))
	c := &binConn{
		s:       s,
		r:       wire.NewReader(nc, int(s.cfg.MaxBodyBytes)),
		w:       wire.NewWriter(nc),
		ctx:     ctx,
		queue:   make(chan *wireReq, wireQueueDepth),
		free:    make(chan *wireReq, wireQueueDepth+1),
		pending: make(map[uint32]bool),
	}
	// The client helloes first; the server always replies with its own
	// hello so a version-mismatched client learns what this server
	// speaks, then the connection closes on mismatch. The client's info
	// string is informational only and ignored here.
	clientV, _, err := c.r.ReadHello()
	if err != nil {
		return
	}
	if c.w.WriteHello(s.helloInfo()) != nil || c.w.Flush() != nil || clientV != wire.Version {
		return
	}
	nc.SetDeadline(time.Time{})

	s.met.wireConns.Add(1)
	defer s.met.wireConns.Add(-1)

	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for req := range c.queue {
			c.handle(req)
			c.putReq(req)
		}
	}()
	c.readLoop()
	// Reader is done (connection failed, closed, or protocol error):
	// abort in-flight work, let the worker drain the queue, and only
	// then tear the connection down.
	cancel()
	close(c.queue)
	<-workerDone
}

// readLoop decodes frames until the connection fails or a protocol
// error makes resynchronization impossible. Framing-level errors get a
// final error frame before the close; a torn connection gets nothing.
func (c *binConn) readLoop() {
	for {
		op, tag, payload, err := c.r.ReadFrame()
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				c.fatalError(0, api.CodeBadRequest, err.Error())
			}
			return
		}
		switch op {
		case wire.OpCancel:
			c.cancelTag(tag)
		case wire.OpRange, wire.OpPoint, wire.OpKNN, wire.OpJoin, wire.OpUpdate, wire.OpCatalog:
			req := c.getReq()
			req.op, req.tag, req.enq = op, tag, time.Now()
			req.buf = append(req.buf[:0], payload...)
			c.mu.Lock()
			c.pending[tag] = false
			c.mu.Unlock()
			c.queue <- req
		default:
			c.fatalError(tag, api.CodeBadRequest, fmt.Sprintf("unknown opcode %#02x", op))
			return
		}
	}
}

// cancelTag applies a cancel frame: flip the pending mark if the tag is
// still queued, cancel the executing join if it is current, drop it
// otherwise (the response already won the race).
func (c *binConn) cancelTag(tag uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.curCancel != nil && c.curTag == tag {
		c.curCancel()
		return
	}
	if _, queued := c.pending[tag]; queued {
		c.pending[tag] = true
	}
}

func (c *binConn) setCurrent(tag uint32, cancel context.CancelFunc) {
	c.mu.Lock()
	c.curTag, c.curCancel = tag, cancel
	c.mu.Unlock()
}

func (c *binConn) clearCurrent() {
	c.mu.Lock()
	c.curTag, c.curCancel = 0, nil
	c.mu.Unlock()
}

func (c *binConn) getReq() *wireReq {
	select {
	case req := <-c.free:
		return req
	default:
		return &wireReq{}
	}
}

func (c *binConn) putReq(req *wireReq) {
	select {
	case c.free <- req:
	default:
	}
}

// respond writes a response frame, flushing only when the pipeline has
// drained — under load many responses share one flush. Write errors are
// ignored here: a failed write means the connection is dying, which the
// reader observes and turns into teardown.
func (c *binConn) respond(op byte, tag uint32, payload []byte) {
	c.wmu.Lock()
	if c.w.WriteFrame(op, tag, payload) == nil && len(c.queue) == 0 {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// respondStream writes a non-terminal OpPairs frame mid-join.
func (c *binConn) respondStream(tag uint32, payload []byte, flush bool) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpPairs, tag, payload) == nil && flush {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// fatalError writes an always-flushed error frame right before the
// connection closes on a protocol error; safe from the reader.
func (c *binConn) fatalError(tag uint32, code, msg string) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpError, tag, wire.AppendErrorResp(nil, code, msg)) == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// handle executes one request frame: metrics, drain and cancel checks,
// admission, then dispatch. Every request frame gets exactly one
// terminal response frame — that contract is what lets the client
// pipeline blindly. A handler that fails returns its error instead of
// answering; the error frame goes out here, and the status recorded for
// metrics is the error code's HTTP status.
func (c *binConn) handle(req *wireReq) {
	s := c.s
	class := classWireQuery
	switch req.op {
	case wire.OpJoin:
		class = classWireJoin
	case wire.OpUpdate:
		class = classWireUpdate
	case wire.OpCatalog:
		class = classWireCatalog
	}
	s.met.requests[class].Add(1)
	s.met.observeWireDepth(len(c.queue) + 1)
	start := time.Now()
	admitted := false
	status := http.StatusOK
	c.call = call{}
	defer func() {
		s.met.observe(class, status, time.Since(start), admitted)
		s.met.observeSpan(&c.call.span)
		c.call.ds.add(&c.call.span)
		s.noteSlow(&c.call.span, class, status, time.Since(start))
	}()
	fail := func(e *api.Error) {
		status = api.Status(e.Code)
		c.respond(wire.OpError, req.tag, wire.AppendErrorResp(nil, e.Code, e.Message))
	}

	c.mu.Lock()
	canceled := c.pending[req.tag]
	delete(c.pending, req.tag)
	c.mu.Unlock()
	if canceled {
		s.met.rejectCanceled.Add(1)
		fail(&api.Error{Code: api.CodeClientClosed, Message: "request canceled by client"})
		return
	}
	if s.draining.Load() {
		s.met.rejectDraining.Add(1)
		fail(errDraining)
		return
	}
	if !s.wireBeginReq() {
		fail(&api.Error{Code: api.CodeDraining, Message: "server is shut down"})
		return
	}
	defer s.wire.reqs.Done()
	// Queue wait counts against the processing budget — the boundary
	// check HTTP requests get from their admission deadline.
	if time.Since(req.enq) > s.cfg.RequestTimeout {
		s.met.rejectTimeout.Add(1)
		fail(s.errTimeout())
		return
	}
	select {
	case s.slots <- struct{}{}:
	case <-c.ctx.Done():
		// Connection torn down while waiting; nobody to answer.
		s.met.rejectCanceled.Add(1)
		status = api.StatusClientClosed
		return
	}
	// Queue wait plus slot wait is this request's admission phase.
	c.call.span.Add(trace.PhaseAdmission, time.Since(req.enq))
	s.met.inFlight.Add(1)
	admitted = true
	defer func() {
		<-s.slots
		s.met.inFlight.Add(-1)
	}()

	var e *api.Error
	switch req.op {
	case wire.OpRange, wire.OpPoint, wire.OpKNN:
		e = c.handleQuery(req)
	case wire.OpJoin:
		e = c.handleJoin(req)
	case wire.OpUpdate:
		e = c.handleUpdate(req)
	case wire.OpCatalog:
		e = c.handleCatalog(req)
	}
	if e != nil {
		fail(e)
	}
}

// handleCatalog answers OpCatalog with the serving catalog — the wire
// twin of GET /v1/datasets, carrying the rows a routing tier needs to
// merge listings across replicas.
func (c *binConn) handleCatalog(req *wireReq) *api.Error {
	if len(req.buf) != 0 {
		return api.Errorf(api.CodeBadRequest, "catalog request carries a %d-byte payload, want empty", len(req.buf))
	}
	if c.ctx.Err() != nil {
		return c.s.aborted(c.ctx)
	}
	infos := c.s.cat.list()
	entries := make([]wire.CatalogEntry, len(infos))
	for i, d := range infos {
		entries[i] = wire.CatalogEntry{
			Name:            d.Name,
			Version:         d.Version,
			Status:          d.Status,
			Objects:         int64(d.Objects),
			StaticBytes:     d.StaticBytes,
			DeltaInserts:    d.DeltaInserts,
			DeltaTombstones: d.DeltaTombstones,
			Persisted:       d.Persisted,
		}
	}
	c.respond(wire.OpCatalogResp, req.tag, wire.AppendCatalogResp(nil, entries))
	return nil
}

// handleQuery answers an OpRange, OpPoint or OpKNN frame. Queries run
// under the connection's context: like their HTTP twins they finish in
// microseconds and only check that they are still wanted before the
// engine call.
func (c *binConn) handleQuery(req *wireReq) *api.Error {
	decStart := time.Now()
	name, q, flags, err := api.WireQuery(req.op, req.buf)
	if err != nil {
		return api.DecodeError(err)
	}
	c.call.span.Add(trace.PhaseDecode, time.Since(decStart))
	version, ids, nbrs, e := c.s.query(c.ctx, &c.call, name, &q)
	if e != nil {
		return e
	}
	if flags&wire.QueryFlagTrace != 0 {
		c.respondTrace(req.tag)
	}
	if req.op == wire.OpKNN {
		c.scratch = wire.AppendNeighborsResp(c.scratch[:0], version, nbrs)
		c.respond(wire.OpNeighbors, req.tag, c.scratch)
	} else {
		c.scratch = wire.AppendIDsResp(c.scratch[:0], version, ids)
		c.respond(wire.OpIDs, req.tag, c.scratch)
	}
	return nil
}

// handleUpdate applies an OpUpdate frame — the wire twin of HTTP's
// PATCH handler: deletes, then inserts, published atomically against
// the serving snapshot, answered with one OpUpdateDone.
func (c *binConn) handleUpdate(req *wireReq) *api.Error {
	ur, err := wire.DecodeUpdateReq(req.buf)
	if err != nil {
		return api.DecodeError(err)
	}
	res, e := c.s.update(c.ctx, string(ur.Name), ur.Inserts, ur.Deletes)
	if e != nil {
		return e
	}
	c.scratch = wire.AppendUpdateResp(c.scratch[:0], wire.UpdateResp{
		Version: res.version, FirstID: res.firstID,
		Inserted: res.inserted, Deleted: res.deleted,
		DeltaInserts: res.deltaIns, DeltaTombstones: res.deltaTomb,
	})
	c.respond(wire.OpUpdateDone, req.tag, c.scratch)
	return nil
}

// handleJoin answers a join frame. count_only joins return one OpCount;
// full joins stream OpPairs batches straight off the engine's iterator
// — O(1) result memory, exempt from MaxJoinPairs exactly like the
// NDJSON path — and finish with OpJoinDone. Joins are the only
// multi-millisecond work on a connection, so they alone get a deadline
// context and per-tag cancel registration; a cancel frame or ShutdownWire
// aborts the engine cooperatively and the admission slot frees on the
// unwind.
func (c *binConn) handleJoin(req *wireReq) *api.Error {
	s := c.s
	decStart := time.Now()
	jr, err := wire.DecodeJoinReq(req.buf)
	if err != nil {
		return api.DecodeError(err)
	}
	c.call.span.Add(trace.PhaseDecode, time.Since(decStart))

	ctx, cancel := context.WithTimeout(c.ctx, s.cfg.RequestTimeout)
	defer cancel()
	c.setCurrent(req.tag, cancel)
	defer c.clearCurrent()
	p, e := s.prepareJoin(ctx, &c.call, jr.Name, jr.ProbeName, jr.Boxes, jr.Eps, jr.Workers)
	if e != nil {
		return e
	}

	if jr.CountOnly {
		res, e := s.runJoin(ctx, &c.call, &p, true, 0)
		if e != nil {
			return e
		}
		if jr.Trace {
			c.respondTrace(req.tag)
		}
		c.scratch = wire.AppendCountResp(c.scratch[:0], p.snap.version, res.Stats.Results)
		c.respond(wire.OpCount, req.tag, c.scratch)
		return nil
	}

	// Unlike NDJSON streaming, a mid-stream failure here still has a
	// terminal frame to use: OpError after partial OpPairs tells the
	// client to discard what it buffered for the tag.
	c.pairBuf = c.pairBuf[:0]
	n := int64(0)
	frames := 0
	for pair, err := range p.snap.engine().JoinSeq(ctx, p.probe, p.options(&c.call)) {
		if err != nil {
			return s.joinError(ctx, err)
		}
		c.pairBuf = append(c.pairBuf, pair)
		if len(c.pairBuf) == wirePairBatch {
			n += int64(len(c.pairBuf))
			c.scratch = wire.AppendPairsResp(c.scratch[:0], c.pairBuf)
			frames++
			c.respondStream(req.tag, c.scratch, frames%wireStreamFlushEvery == 0)
			c.pairBuf = c.pairBuf[:0]
		}
	}
	if len(c.pairBuf) > 0 {
		n += int64(len(c.pairBuf))
		c.scratch = wire.AppendPairsResp(c.scratch[:0], c.pairBuf)
		c.respondStream(req.tag, c.scratch, false)
	}
	if jr.Trace {
		c.respondTrace(req.tag)
	}
	c.scratch = wire.AppendJoinDoneResp(c.scratch[:0], p.snap.version, n)
	c.respond(wire.OpJoinDone, req.tag, c.scratch)
	return nil
}
