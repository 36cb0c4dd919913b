package server

// The request executor: everything a query, join or update does between
// "decoded" and "encoded" — snapshot lookup, the engine call, spans and
// the error vocabulary — implemented once and called by both front doors.
// The HTTP handlers (server.go) and the wire handlers (bin.go) only turn
// bytes into the arguments below and the results back into bytes.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"touch"
	"touch/internal/api"
	"touch/internal/trace"
)

// call is one admitted request's executor state: the span the engine
// records into, and the per-dataset counters the request is charged to
// once its dataset resolves. HTTP keeps it in the request's reqInfo;
// the wire path reuses one per connection so the steady pipeline stays
// allocation-free.
type call struct {
	span touch.Span
	ds   *dsCounters
}

func errUnknown(name string) *api.Error {
	return api.Errorf(api.CodeUnknownDataset, "dataset %q not loaded", name)
}

func errBuilding(name string) *api.Error {
	return api.Errorf(api.CodeBuilding, "dataset %q is still building its first index version", name)
}

var errDraining = &api.Error{Code: api.CodeDraining, Message: "server is draining for shutdown"}

func (s *Server) errTimeout() *api.Error {
	return api.Errorf(api.CodeTimeout, "request exceeded the %v processing budget", s.cfg.RequestTimeout)
}

// engineError maps the touch package's typed validation errors onto the
// error vocabulary. Unknown errors are internal — with validated input
// the engine has no expected failure mode.
func engineError(err error) *api.Error {
	code := api.CodeInternal
	switch {
	case errors.Is(err, touch.ErrInvalidBox):
		code = api.CodeInvalidBox
	case errors.Is(err, touch.ErrInvalidPoint):
		code = api.CodeInvalidPoint
	case errors.Is(err, touch.ErrInvalidK):
		code = api.CodeInvalidK
	case errors.Is(err, touch.ErrNegativeDistance):
		code = api.CodeInvalidEps
	}
	return api.Errorf(code, "%v", err)
}

// aborted classifies a canceled computation, telling budget blowouts
// apart from client behavior: a deadline expiry is the server's own
// timeout; anything else means the client (or its load balancer) hung
// up. The matching reject metric is recorded here, the one place for
// the distinction.
func (s *Server) aborted(ctx context.Context) *api.Error {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		s.met.rejectTimeout.Add(1)
		return s.errTimeout()
	}
	s.met.rejectCanceled.Add(1)
	return &api.Error{Code: api.CodeClientClosed, Message: "request canceled by client"}
}

// joinError maps a join's engine failure: cancellation is an abort,
// anything else an engine error.
func (s *Server) joinError(ctx context.Context, err error) *api.Error {
	if errors.Is(err, touch.ErrJoinCanceled) {
		return s.aborted(ctx)
	}
	return engineError(err)
}

// serving resolves the snapshot a request answers from. The name stays a
// byte slice so a wire request looks it up without copying it.
func (s *Server) serving(name []byte) (*snapshot, *api.Error) {
	snap, exists := s.cat.snapshotBytes(name)
	if !exists {
		return nil, errUnknown(string(name))
	}
	if snap == nil {
		return nil, errBuilding(string(name))
	}
	return snap, nil
}

// query answers one single-probe read: ids for range and point, nbrs for
// knn. These run in microseconds, so the deadline is only checked at the
// boundary — a request whose budget is already gone (it spent it
// queueing, or the client left) skips the work.
func (s *Server) query(ctx context.Context, cl *call, name []byte, q *api.Query) (version int64, ids []touch.ID, nbrs []touch.Neighbor, e *api.Error) {
	snap, e := s.serving(name)
	if e != nil {
		return 0, nil, nil, e
	}
	cl.ds = s.met.dataset(name)
	if hook := s.testHookWorker; hook != nil {
		hook(ctx)
	}
	if ctx.Err() != nil {
		return 0, nil, nil, s.aborted(ctx)
	}
	var err error
	switch q.Type {
	case "range":
		ids, err = snap.engine().RangeQueryTraced(q.Box, &cl.span)
	case "point":
		ids, err = snap.engine().PointQueryTraced(q.Point[0], q.Point[1], q.Point[2], &cl.span)
	default:
		nbrs, err = snap.engine().KNNTraced(q.Point, q.K, &cl.span)
	}
	if err != nil {
		return 0, nil, nil, engineError(err)
	}
	return snap.version, ids, nbrs, nil
}

// update validates one batch of deletes and inserts and applies it to
// the named dataset's pending delta (see catalog.applyUpdate).
func (s *Server) update(ctx context.Context, name string, inserts []touch.Box, deletes []touch.ID) (updResult, *api.Error) {
	if len(inserts) == 0 && len(deletes) == 0 {
		return updResult{}, api.Errorf(api.CodeBadRequest, "update needs insert rows or delete IDs")
	}
	// Validate through the same hardening as a load; the validated
	// dataset is discarded — applyUpdate assigns the real IDs.
	if _, err := touch.DatasetFromBoxes(inserts); err != nil {
		return updResult{}, api.Errorf(api.CodeInvalidBox, "%v", err)
	}
	if ctx.Err() != nil {
		return updResult{}, s.aborted(ctx)
	}
	return s.cat.applyUpdate(name, inserts, deletes)
}

// joinPlan is a join ready to run: the indexed side's serving snapshot,
// the probe already expanded by ε, and the worker count.
type joinPlan struct {
	snap         *snapshot
	probe        touch.Dataset
	probeVersion int64 // the named probe's serving version; 0 when inline
	workers      int
}

// prepareJoin resolves a join's indexed snapshot and its probe — the
// named dataset (probeName non-nil) or the inline boxes (boxes non-nil,
// possibly empty), exactly one of them — and expands the probe by eps.
// The indexed dataset is looked up first, so an unknown dataset is
// reported before a mistake in the probe side. Probe materialization is
// request decoding, so the whole set-up is timed as the decode phase;
// the ε = 0 join is the plain intersection join, where the expansion is
// the identity and copies nothing. ctx is the join's budget, handed to
// the test hook.
func (s *Server) prepareJoin(ctx context.Context, cl *call, name, probeName []byte, boxes []touch.Box, eps float64, workers int) (joinPlan, *api.Error) {
	start := time.Now()
	p := joinPlan{workers: clampWorkers(workers)}
	if p.workers <= 0 {
		p.workers = s.cfg.Workers
	}
	var e *api.Error
	if p.snap, e = s.serving(name); e != nil {
		return p, e
	}
	cl.ds = s.met.dataset(name)
	if e = api.CheckProbeSide(probeName != nil, boxes != nil); e != nil {
		return p, e
	}
	if probeName != nil {
		psnap, e := s.serving(probeName)
		if e != nil {
			return p, e
		}
		// dataset() folds the probe's pending updates in, so a named
		// probe joins with the same merged state its own queries see.
		p.probe, p.probeVersion = psnap.dataset(), psnap.version
	} else {
		var err error
		if p.probe, err = touch.DatasetFromBoxes(boxes); err != nil {
			return p, api.Errorf(api.CodeInvalidBox, "%v", err)
		}
	}
	if eps < 0 {
		return p, engineError(fmt.Errorf("%w %g", touch.ErrNegativeDistance, eps))
	}
	p.probe = p.probe.Expand(eps)
	cl.span.Add(trace.PhaseDecode, time.Since(start))
	if hook := s.testHookWorker; hook != nil {
		hook(ctx)
	}
	return p, nil
}

// options returns the engine options of the plan's run.
func (p *joinPlan) options(cl *call) *touch.Options {
	return &touch.Options{Workers: p.workers, Trace: &cl.span}
}

// runJoin runs a planned join to completion. count_only joins carry no
// pairs; limit > 0 aborts a join that produces more pairs than that.
func (s *Server) runJoin(ctx context.Context, cl *call, p *joinPlan, countOnly bool, limit int64) (*touch.Result, *api.Error) {
	opt := p.options(cl)
	opt.NoPairs, opt.Limit = countOnly, limit
	res, err := p.snap.engine().JoinCtx(ctx, p.probe, opt)
	if err != nil {
		return nil, s.joinError(ctx, err)
	}
	return res, nil
}
