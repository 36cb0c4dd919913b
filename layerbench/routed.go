package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"touch"
	"touch/client"
	"touch/internal/promtext"
	"touch/internal/router"
	"touch/internal/server"
)

// read-routed: a clustered dataset in one touchserved backend behind a
// touchrouter wire front (R=1); two client connections each run a
// closed loop of windows of 16 pipelined reads.
const (
	routedSize   = 256_000
	routedName   = "routed"
	windowSize   = 16
	readConns    = 2
	streamLen    = 8192 // reads per stream, a multiple of windowSize
	checkStride  = 61   // every checkStride-th read of the stream is checked
	shutdownWait = 5 * time.Second
)

type routedInput struct {
	boxes []touch.Box
	text  []byte
	reads []query
}

func genRouted(seed uint64) routedInput {
	in := routedInput{
		boxes: clusteredBoxes(rng(seed, streamData), routedSize),
		reads: readStream(rng(seed, streamReads), streamLen),
	}
	in.text = encode(in.boxes)
	return in
}

// routedStack is one running backend + router, with the client
// connections the workload reads through.
type routedStack struct {
	ds      touch.Dataset
	srv     *server.Server
	backend string // backend wire address
	rt      *router.Router
	conns   []*client.Conn
	serving sync.WaitGroup // the two accept loops
}

// setup is the program's path from input text to the first servable
// routed read: parse, build and load, open the backend's wire listener,
// start the router (its initial health sweep is synchronous), open the
// router's wire front and connect the clients.
func (in routedInput) setup() (*routedStack, error) {
	ds, err := parse(in.text, routedSize)
	if err != nil {
		return nil, err
	}
	st := &routedStack{ds: ds, srv: server.New(server.Config{NodeID: "backend-0"})}
	st.srv.Load(routedName, ds, touch.TOUCHConfig{})
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.backend = wln.Addr().String()
	st.serving.Add(1)
	go func() { defer st.serving.Done(); st.srv.ServeWire(wln) }()

	st.rt, err = router.New(router.Config{Backends: []string{st.backend}, Replication: 1})
	if err != nil {
		st.close()
		return nil, err
	}
	st.rt.Start()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.serving.Add(1)
	go func() { defer st.serving.Done(); st.rt.ServeWire(rln) }()
	for i := 0; i < readConns; i++ {
		c, err := client.Dial(context.Background(), rln.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, c)
	}
	return st, nil
}

func (st *routedStack) close() {
	for _, c := range st.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownWait)
	defer cancel()
	if st.rt != nil {
		st.rt.ShutdownWire(ctx)
		st.rt.Close()
	}
	st.srv.ShutdownWire(ctx)
	st.serving.Wait()
}

// answer is one read's outcome.
type answer struct {
	ids  []touch.ID
	nbrs []touch.Neighbor
	err  error
	lat  time.Duration
}

// window sends qs as one pipelined batch on c and collects every answer;
// each latency runs from just before Send until that answer is in hand.
func window(ctx context.Context, c *client.Conn, qs []query, out []answer) {
	b := c.Batch()
	rf := make([]client.IDsFuture, len(qs))
	kf := make([]client.NeighborsFuture, len(qs))
	for j, q := range qs {
		if q.knn {
			kf[j] = b.KNN(routedName, q.pt, q.k)
		} else {
			rf[j] = b.Range(routedName, q.box)
		}
	}
	start := time.Now()
	if err := b.Send(); err != nil {
		for j := range qs {
			out[j] = answer{err: err, lat: time.Since(start)}
		}
		return
	}
	for j, q := range qs {
		var a answer
		if q.knn {
			_, a.nbrs, a.err = kf[j].Get(ctx)
		} else {
			_, a.ids, a.err = rf[j].Get(ctx)
		}
		a.lat = time.Since(start)
		out[j] = a
	}
}

// tally is one reader's record: latencies, failures, the answers kept
// for the oracle check by stream position, and the IDs returned by the
// range reads of the stream's first pass (a count that must repeat
// exactly for a seed).
type tally struct {
	lat       samples
	failed    int64
	checked   map[int]answer
	firstIDs  int
	firstRead map[int]bool
}

func newTally() *tally { return &tally{checked: map[int]answer{}, firstRead: map[int]bool{}} }

// note records one read at stream position i.
func (t *tally) note(i int, a answer) {
	if a.err != nil {
		t.failed++
		return
	}
	t.lat = append(t.lat, a.lat)
	if !t.firstRead[i] {
		t.firstRead[i] = true
		t.firstIDs += len(a.ids)
	}
	if i%checkStride == 0 {
		if _, seen := t.checked[i]; !seen {
			t.checked[i] = a
		}
	}
}

// merge folds the readers' tallies into r and checks the kept answers
// against the brute-force oracle over objs.
func merge(r *run, objs touch.Dataset, reads []query, ts ...*tally) samples {
	var lat samples
	checked := map[int]answer{}
	firstIDs, firstReads := 0, 0
	for _, t := range ts {
		lat = append(lat, t.lat...)
		firstIDs += t.firstIDs
		firstReads += len(t.firstRead)
		r.attempted += int64(len(t.lat)) + t.failed
		r.failed += t.failed
		for i, a := range t.checked {
			checked[i] = a
		}
	}
	for i, a := range checked {
		if err := checkAnswer(objs, reads[i], a.ids, a.nbrs); err != nil {
			r.fail("read %d: %v", i, err)
		}
	}
	r.note("oracle_checked", len(checked))
	if firstReads == len(reads) {
		r.repeat("index.range_ids_total", int64(firstIDs))
	}
	return lat
}

// readWindows runs one closed-loop reader on c until the deadline:
// reader k of n takes windows k, k+n, k+2n, … of the stream.
func readWindows(c *client.Conn, reads []query, k, n int, deadline time.Time) *tally {
	t := newTally()
	out := make([]answer, windowSize)
	ctx := context.Background()
	for w := k; time.Now().Before(deadline); w += n {
		base := (w * windowSize) % len(reads)
		window(ctx, c, reads[base:base+windowSize], out)
		for j, a := range out {
			t.note(base+j, a)
		}
	}
	return t
}

// readLoad runs readConns closed-loop readers through st's router for
// d and returns their tallies and the time they took.
func readLoad(st *routedStack, reads []query, d time.Duration) ([]*tally, time.Duration) {
	ts := make([]*tally, len(st.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range st.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts[k] = readWindows(c, reads, k, len(st.conns), start.Add(d))
		}()
	}
	wg.Wait()
	return ts, time.Since(start)
}

func measureRouted(r *run) error {
	in := genRouted(r.seed)
	st, err := setupTimes(r, in.setup, (*routedStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	readLoad(st, in.reads, r.seconds/20) // warm-up, not counted

	ts, elapsed := readLoad(st, in.reads, r.seconds)
	setOpMetrics(r, merge(r, objects(in.boxes), in.reads, ts...), elapsed)
	return nil
}

// rssRouted: set up once, then two seconds of the routed read load.
func rssRouted(r *run) error {
	in := genRouted(r.seed)
	st, err := in.setup()
	if err != nil {
		return err
	}
	defer st.close()
	ts, _ := readLoad(st, in.reads, 2*time.Second)
	for _, t := range ts {
		if t.failed > 0 {
			return errors.New("reads failed")
		}
	}
	return nil
}

// layersRouted prices the routed read path from outside, layer by
// layer: BuildIndex and in-process Index queries, the same windows sent
// straight to the backend's wire listener and through the router, the
// backend's opt-in per-request trace, and before/after scrapes of both
// /metrics endpoints.
func layersRouted(r *run) error {
	in := genRouted(r.seed)
	st, err := in.setup()
	if err != nil {
		return err
	}
	defer st.close()
	budget := r.seconds / 10
	rtBefore, err := scrape(st.rt)
	if err != nil {
		return err
	}

	priceIndex(r, st.ds, in.reads, budget)

	// Direct and routed windows alternate, one connection each, so both
	// see the same machine state.
	direct, err := client.Dial(context.Background(), st.backend)
	if err != nil {
		return err
	}
	defer direct.Close()
	var directLat, routedLat samples
	var depthSum, depthCount float64
	routedTally := newTally()
	out := make([]answer, windowSize)
	ctx := context.Background()
	for w, start := 0, time.Now(); time.Since(start) < 4*budget; w++ {
		base := (w * windowSize) % len(in.reads)
		qs := in.reads[base : base+windowSize]
		window(ctx, direct, qs, out)
		r.attempted += windowSize
		directLat = append(directLat, windowTime(r, out))

		before, err := scrape(st.srv)
		if err != nil {
			return err
		}
		window(ctx, st.conns[0], qs, out)
		for j, a := range out {
			routedTally.note(base+j, a)
		}
		routedLat = append(routedLat, out[len(out)-1].lat)
		after, err := scrape(st.srv)
		if err != nil {
			return err
		}
		depthSum += sum(after, "touchserved_wire_pipeline_depth_sum", nil) - sum(before, "touchserved_wire_pipeline_depth_sum", nil)
		depthCount += sum(after, "touchserved_wire_pipeline_depth_count", nil) - sum(before, "touchserved_wire_pipeline_depth_count", nil)
	}
	merge(r, objects(in.boxes), in.reads, routedTally)
	r.set("wire.window_us", us(directLat.median()))
	r.set("router.window_us", us(routedLat.median()))
	r.set("router.self_us", us(routedLat.median()-directLat.median()))
	if depthCount > 0 {
		r.set("server.pipeline_depth", depthSum/depthCount)
	}
	r.timing("wire.window", directLat, 50)
	r.timing("router.window", routedLat, 50)

	// The backend's own trace on a sample of unary reads: each read is
	// sent untraced and traced, for the trace overhead.
	var plain, traced samples
	phases := map[string]samples{}
	for i, start := 0, time.Now(); time.Since(start) < 4*budget; i++ {
		q := in.reads[(i/2)%len(in.reads)]
		withTrace := tracedTurn(i)
		t := time.Now()
		var tr *client.Trace
		var err error
		switch {
		case !withTrace && q.knn:
			_, _, err = direct.KNN(ctx, routedName, q.pt, q.k)
		case !withTrace:
			_, _, err = direct.Range(ctx, routedName, q.box)
		case q.knn:
			_, _, tr, err = direct.KNNTraced(ctx, routedName, q.pt, q.k)
		default:
			_, _, tr, err = direct.RangeTraced(ctx, routedName, q.box)
		}
		d := time.Since(t)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		if !withTrace {
			plain = append(plain, d)
			continue
		}
		traced = append(traced, d)
		if tr == nil {
			r.failed++ // the server answered without the trace asked for
			continue
		}
		notePhases(phases, tr.PhaseNs)
	}
	setPhases(r, phases)
	r.set("trace.overhead_pct", overheadPct(plain, traced))

	rtAfter, err := scrape(st.rt)
	if err != nil {
		return err
	}
	r.set("router.failovers", sum(rtAfter, "touchrouter_failovers_total", nil)-sum(rtBefore, "touchrouter_failovers_total", nil))
	r.set("router.backend_errors", sum(rtAfter, "touchrouter_backend_errors_total", nil)-sum(rtBefore, "touchrouter_backend_errors_total", nil))
	return nil
}

// windowTime counts a direct window's failures and returns the time to
// its last answer.
func windowTime(r *run, out []answer) time.Duration {
	for _, a := range out {
		if a.err != nil {
			r.failed++
		}
	}
	return out[len(out)-1].lat
}

// priceIndex builds the index in-process and replays the read stream
// against it: index.build_ms, index.range_us, index.knn_us and the
// exact mean answer size index.range_ids.
func priceIndex(r *run, ds touch.Dataset, reads []query, budget time.Duration) *touch.Index {
	var builds samples
	var idx *touch.Index
	for i, start := 0, time.Now(); i < 3 || time.Since(start) < budget; i++ {
		t := time.Now()
		idx = touch.BuildIndex(ds, touch.TOUCHConfig{})
		builds = append(builds, time.Since(t))
	}
	r.set("index.build_ms", ms(builds.median()))
	r.timing("index.build", builds, 50)

	rangeLat, knnLat, ids, ranges := replay(r, idx.RangeQuery, idx.KNN, reads, budget)
	r.set("index.range_us", us(rangeLat.median()))
	r.set("index.knn_us", us(knnLat.median()))
	r.set("index.range_ids", float64(ids)/float64(max(ranges, 1)))
	r.repeat("index.range_ids_total", int64(ids))
	return idx
}

// replay runs the read stream through in-process query functions until
// the budget is spent (at least one full pass) and returns per-kind
// latencies plus the total IDs and range count of the first pass.
func replay(r *run, rangeQ func(touch.Box) ([]touch.ID, error), knnQ func(touch.Point, int) ([]touch.Neighbor, error),
	reads []query, budget time.Duration) (rangeLat, knnLat samples, ids, ranges int) {
	for i, start := 0, time.Now(); i < len(reads) || time.Since(start) < budget; i++ {
		q := reads[i%len(reads)]
		t := time.Now()
		var err error
		if q.knn {
			_, err = knnQ(q.pt, q.k)
			knnLat = append(knnLat, time.Since(t))
		} else {
			var got []touch.ID
			got, err = rangeQ(q.box)
			rangeLat = append(rangeLat, time.Since(t))
			if i < len(reads) {
				ids += len(got)
				ranges++
			}
		}
		r.attempted++
		if err != nil {
			r.failed++
		}
	}
	return rangeLat, knnLat, ids, ranges
}

// notePhases adds one trace's phase times (absent phases count as 0) to
// the per-phase samples.
func notePhases(phases map[string]samples, phaseNs map[string]int64) {
	for _, p := range []string{"admission", "decode", "query", "overlay", "delta", "encode"} {
		phases[p] = append(phases[p], time.Duration(phaseNs[p]))
	}
}

// setPhases reports the mean time per traced request in each serving
// phase; means, unlike medians, add up to the traced total.
func setPhases(r *run, phases map[string]samples) {
	for p, s := range phases {
		r.set("server."+p+"_us", us(s.mean()))
	}
	r.note("traced_requests", len(phases["query"]))
}

// scrape renders h's /metrics in-process and parses it.
func scrape(h http.Handler) (*promtext.Metrics, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", rec.Code)
	}
	return promtext.Parse(rec.Body)
}

// sum adds every sample called name whose labels include want.
func sum(m *promtext.Metrics, name string, want map[string]string) float64 {
	total := 0.0
	for _, f := range m.Families {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for k, v := range want {
				if s.Label(k) != v {
					match = false
				}
			}
			if match {
				total += s.Value
			}
		}
	}
	return total
}
