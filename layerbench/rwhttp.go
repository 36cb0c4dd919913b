package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"touch"
	"touch/internal/server"
)

// readwrite-http: a uniform dataset served over HTTP with a data
// directory and the default compaction threshold; one open-loop writer
// PATCHes batches on a fixed schedule while one closed-loop reader sends
// unary queries.
const (
	rwSize       = 64_000
	rwName       = "rw"
	writeEvery   = 10 * time.Millisecond // 100 batches/s
	batchInserts = 16
	batchDeletes = 8 // of the writer's own earlier inserts
	finalReads   = 96
	sampleEvery  = 50 * time.Millisecond // catalog sampling period
)

// flushPolicy states how readwrite-http persists, for the run metadata.
const flushPolicy = "server default with DataDir: every index version (load and each background fold at the default CompactThreshold) " +
	"is written as a checksummed snapshot and fsynced before it serves; PATCHed updates stay in memory until folded"

type rwInput struct {
	boxes   []touch.Box
	text    []byte
	reads   []query
	bodies  [][]byte // reads as JSON request bodies
	inserts [][]touch.Box
	final   []query
}

func genRW(seed uint64, d time.Duration) rwInput {
	in := rwInput{
		boxes: uniformBoxes(rng(seed, streamData), rwSize),
		reads: readStream(rng(seed, streamReads), streamLen),
		final: readStream(rng(seed, streamFinal), finalReads),
	}
	in.text = encode(in.boxes)
	for _, q := range in.reads {
		in.bodies = append(in.bodies, queryBody(q))
	}
	g := rng(seed, streamWrites)
	for i := 0; i <= int(d/writeEvery)+1; i++ {
		in.inserts = append(in.inserts, uniformBoxes(g, batchInserts))
	}
	return in
}

func queryBody(q query) []byte {
	var v any
	if q.knn {
		v = map[string]any{"type": "knn", "point": q.pt[:], "k": q.k}
	} else {
		b := q.box
		v = map[string]any{"type": "range", "box": []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}}
	}
	data, _ := json.Marshal(v) // a map of numbers always encodes
	return data
}

// rwStack is one running HTTP server over a durable catalog.
type rwStack struct {
	ds      touch.Dataset
	srv     *server.Server
	hs      *http.Server
	base    string // http://host:port
	client  *http.Client
	serving sync.WaitGroup
}

// setup is the program's path from input text to the first servable
// HTTP read: parse, build, persist the first snapshot, listen.
func (in rwInput) setup(dir string) (*rwStack, error) {
	ds, err := parse(in.text, rwSize)
	if err != nil {
		return nil, err
	}
	st := &rwStack{ds: ds, srv: server.New(server.Config{DataDir: dir})}
	st.srv.Load(rwName, ds, touch.TOUCHConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv}
	st.serving.Add(1)
	go func() { defer st.serving.Done(); st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return st, nil
}

func (st *rwStack) close() {
	st.client.CloseIdleConnections()
	st.hs.Close()
	st.serving.Wait()
}

// freshDir makes the n-th set-up's own empty data directory.
func freshDir(r *run, n int) (string, error) {
	dir := filepath.Join(r.tmp, fmt.Sprintf("data-%d", n))
	return dir, os.MkdirAll(dir, 0o755)
}

// queryResp is the part of a query answer the benchmark checks.
type queryResp struct {
	IDs       []touch.ID `json:"ids"`
	Neighbors []struct {
		ID       touch.ID `json:"id"`
		Distance float64  `json:"distance"`
	} `json:"neighbors"`
	Trace *struct {
		PhaseNs map[string]int64 `json:"phase_ns"`
	} `json:"trace"`
}

// post sends one query body and returns the raw answer; the latency
// ends when the whole body has arrived, before the benchmark decodes it.
func (st *rwStack) post(body []byte, traced bool) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, st.base+"/v1/datasets/"+rwName+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set("X-Touch-Trace", "1")
	}
	start := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("query status %d: %s", resp.StatusCode, data)
	}
	return data, d, err
}

func decodeAnswer(data []byte) (queryResp, []touch.ID, []touch.Neighbor, error) {
	var qr queryResp
	if err := json.Unmarshal(data, &qr); err != nil {
		return qr, nil, nil, err
	}
	nbrs := make([]touch.Neighbor, len(qr.Neighbors))
	for i, n := range qr.Neighbors {
		nbrs[i] = touch.Neighbor{ID: n.ID, Distance: n.Distance}
	}
	return qr, qr.IDs, nbrs, nil
}

// mirror is the benchmark's own copy of the dataset: base objects plus
// acknowledged inserts minus acknowledged deletes.
type mirror struct {
	live  map[touch.ID]touch.Box
	queue []touch.ID // acknowledged live inserts, oldest first
}

func newMirror(boxes []touch.Box) *mirror {
	m := &mirror{live: make(map[touch.ID]touch.Box, len(boxes))}
	for i, b := range boxes {
		m.live[touch.ID(i)] = b
	}
	return m
}

// dataset returns the mirror's live objects in ID order.
func (m *mirror) dataset() touch.Dataset {
	out := make(touch.Dataset, 0, len(m.live))
	for _, id := range slices.Sorted(maps.Keys(m.live)) {
		out = append(out, touch.Object{ID: id, Box: m.live[id]})
	}
	return out
}

// writeLog is the writer's record.
type writeLog struct {
	lat, lag samples
	failed   int64
}

// writeLoad PATCHes one batch every writeEvery until the deadline: 16
// inserts plus deletes of the 8 oldest live inserts of its own. Each
// latency runs from the batch's scheduled send time.
func (st *rwStack) writeLoad(in rwInput, m *mirror, start, deadline time.Time) *writeLog {
	w := &writeLog{}
	url := st.base + "/v1/datasets/" + rwName
	for i := 0; i < len(in.inserts); i++ {
		due := start.Add(time.Duration(i) * writeEvery)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		w.lag = append(w.lag, time.Since(due))
		var dels []touch.ID
		if len(m.queue) >= 2*batchDeletes {
			dels = m.queue[:batchDeletes]
		}
		ins := make([][]float64, len(in.inserts[i]))
		for j, b := range in.inserts[i] {
			ins[j] = []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]}
		}
		body, _ := json.Marshal(map[string]any{"insert": ins, "delete": dels}) // numbers always encode
		req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(body))
		if err != nil {
			w.failed++
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := st.client.Do(req)
		if err != nil {
			w.failed++
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		w.lat = append(w.lat, time.Since(due))
		var ack struct {
			InsertedIDs []touch.ID `json:"inserted_ids"`
			Deleted     int        `json:"deleted"`
		}
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(data, &ack) != nil ||
			len(ack.InsertedIDs) != len(ins) || ack.Deleted != len(dels) {
			w.failed++
			continue
		}
		for _, id := range dels {
			delete(m.live, id)
		}
		m.queue = m.queue[len(dels):]
		for j, id := range ack.InsertedIDs {
			m.live[id] = in.inserts[i][j]
			m.queue = append(m.queue, id)
		}
	}
	return w
}

// readLog is the reader's record.
type readLog struct {
	plain  samples
	traced samples
	phases map[string]samples // per serving phase, of the traced reads
	failed int64
}

// readLoad runs the closed-loop reader until the deadline. With
// traced set, each read is sent twice, untraced and asking for the
// server's trace (see tracedTurn); the two latencies are kept apart.
func (st *rwStack) readLoad(in rwInput, deadline time.Time, traced bool) *readLog {
	l := &readLog{phases: map[string]samples{}}
	for i := 0; time.Now().Before(deadline); i++ {
		body, tr := in.bodies[i%len(in.bodies)], false
		if traced {
			body, tr = in.bodies[(i/2)%len(in.bodies)], tracedTurn(i)
		}
		data, d, err := st.post(body, tr)
		if err != nil {
			l.failed++
			continue
		}
		if !tr {
			l.plain = append(l.plain, d)
			continue
		}
		l.traced = append(l.traced, d)
		qr, _, _, err := decodeAnswer(data)
		if err != nil || qr.Trace == nil {
			l.failed++
			continue
		}
		notePhases(l.phases, qr.Trace.PhaseNs)
	}
	return l
}

// mixed runs the writer and the reader side by side for d.
func (st *rwStack) mixed(in rwInput, m *mirror, d time.Duration, traceReads bool) (*writeLog, *readLog, time.Duration) {
	start := time.Now()
	var w *writeLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w = st.writeLoad(in, m, start, start.Add(d))
	}()
	rl := st.readLoad(in, start.Add(d), traceReads)
	elapsed := time.Since(start)
	wg.Wait()
	return w, rl, elapsed
}

// checkFinal compares final-state answers with the brute-force answer
// over the mirror.
func (st *rwStack) checkFinal(r *run, in rwInput, m *mirror) {
	objs := m.dataset()
	for i, q := range in.final {
		data, _, err := st.post(queryBody(q), false)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		_, ids, nbrs, err := decodeAnswer(data)
		if err == nil {
			err = checkAnswer(objs, q, ids, nbrs)
		}
		if err != nil {
			r.fail("final read %d: %v", i, err)
		}
	}
	r.note("oracle_checked", len(in.final))
	r.note("final_objects", len(objs))
}

// noteReads counts the reader's requests into the run.
func noteReads(r *run, rl *readLog) {
	r.attempted += int64(len(rl.plain)+len(rl.traced)) + rl.failed
	r.failed += rl.failed
}

// noteWrites counts the writer's batches into the run.
func noteWrites(r *run, w *writeLog) {
	r.attempted += int64(len(w.lat)) + w.failed
	r.failed += w.failed
	r.timing("write", w.lat, 50, 99)
	r.timing("write_lag", w.lag, 50, 99)
}

func measureRW(r *run) error {
	in := genRW(r.seed, r.seconds)
	n := 0
	st, err := setupTimes(r, func() (*rwStack, error) {
		n++
		dir, err := freshDir(r, n)
		if err != nil {
			return nil, err
		}
		return in.setup(dir)
	}, (*rwStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	r.note("flush_policy", flushPolicy)
	r.note("compact_threshold", touch.DefaultCompactThreshold)
	before, err := scrape(st.srv)
	if err != nil {
		return err
	}
	// Warm-up reads only: the writer's stream starts with the measurement.
	st.readLoad(in, time.Now().Add(r.seconds/20), false)

	m := newMirror(in.boxes)
	w, rl, elapsed := st.mixed(in, m, r.seconds, false)
	noteReads(r, rl)
	noteWrites(r, w)
	setOpMetrics(r, rl.plain, elapsed)
	st.checkFinal(r, in, m)
	after, err := scrape(st.srv)
	if err != nil {
		return err
	}
	r.note("compactions", sum(after, "touchserved_compactions_total", map[string]string{"outcome": "published"})-
		sum(before, "touchserved_compactions_total", map[string]string{"outcome": "published"}))
	return nil
}

// rssRW: set up once, then two seconds of the mixed load.
func rssRW(r *run) error {
	in := genRW(r.seed, 2*time.Second)
	st, err := in.setup(r.tmp)
	if err != nil {
		return err
	}
	defer st.close()
	w, rl, _ := st.mixed(in, newMirror(in.boxes), 2*time.Second, false)
	if n := rl.failed + w.failed; n > 0 {
		return fmt.Errorf("%d operations failed", n)
	}
	return nil
}

// layersRW prices the read-write path from outside: the mixed load with
// a sample of server-traced reads and catalog sampling, then — writer
// stopped — BuildIndex and a durable snapshot at fold size, Index and
// Overlay queries in-process, and Server.ServeHTTP called without a
// socket next to the same reads over HTTP.
func layersRW(r *run) error {
	in := genRW(r.seed, r.seconds)
	st, err := in.setup(r.tmp)
	if err != nil {
		return err
	}
	defer st.close()
	r.note("flush_policy", flushPolicy)
	budget := r.seconds / 10
	before, err := scrape(st.srv)
	if err != nil {
		return err
	}

	// Catalog sampler: pending delta size, every sampleEvery.
	stop := make(chan struct{})
	var deltas []float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if n, err := st.pendingDelta(); err == nil {
				deltas = append(deltas, float64(n))
			}
		}
	}()
	m := newMirror(in.boxes)
	w, rl, _ := st.mixed(in, m, 5*budget, true)
	close(stop)
	sampler.Wait()
	noteReads(r, rl)
	noteWrites(r, w)
	r.set("loadgen.write_p50_us", us(w.lat.median()))
	r.set("loadgen.write_p99_us", us(w.lat.quantile(0.99)))
	r.set("loadgen.write_lag_ms", ms(w.lag.quantile(0.99)))
	r.set("trace.overhead_pct", overheadPct(rl.plain, rl.traced))
	setPhases(r, rl.phases)
	meanDelta := 0.0
	for _, d := range deltas {
		meanDelta += d / float64(len(deltas))
	}
	r.set("catalog.delta_objects", meanDelta)
	after, err := scrape(st.srv)
	if err != nil {
		return err
	}
	for name, outcome := range map[string]string{"catalog.compactions": "published", "catalog.compactions_skipped": "skipped"} {
		want := map[string]string{"outcome": outcome}
		r.set(name, sum(after, "touchserved_compactions_total", want)-sum(before, "touchserved_compactions_total", want))
	}
	st.checkFinal(r, in, m)

	// Fold-sized dataset: the mirror's final state.
	folded := m.dataset()
	idx := priceIndex(r, folded, in.reads, budget)
	if err := priceSnapshot(r, folded, idx, budget); err != nil {
		return err
	}

	// Overlay over the base index with a delta of the mean observed
	// size, in the writer's 2:1 insert:tombstone mix.
	base := touch.BuildIndex(st.ds, touch.TOUCHConfig{})
	nIns := int(meanDelta * 2 / 3)
	var inserts touch.Dataset
	for _, o := range folded {
		if int(o.ID) >= rwSize && len(inserts) < nIns {
			inserts = append(inserts, o)
		}
	}
	var deleted []touch.ID
	for i := 0; i < int(meanDelta)-nIns; i++ {
		deleted = append(deleted, touch.ID(i*(rwSize/max(int(meanDelta), 1))))
	}
	ov := touch.NewOverlay(base, inserts, deleted)
	rangeLat, knnLat, _, _ := replay(r, ov.RangeQuery, ov.KNN, in.reads, budget)
	r.set("overlay.range_us", us(rangeLat.median()))
	r.set("overlay.knn_us", us(knnLat.median()))

	// The handler without a socket vs the same reads over HTTP.
	var handler, viaHTTP samples
	for i, start := 0, time.Now(); time.Since(start) < 2*budget; i++ {
		body := in.bodies[i%len(in.bodies)]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets/"+rwName+"/query", bytes.NewReader(body))
		t := time.Now()
		st.srv.ServeHTTP(rec, req)
		handler = append(handler, time.Since(t))
		_, d, err := st.post(body, false)
		r.attempted += 2
		if rec.Code != http.StatusOK {
			r.failed++
		}
		if err != nil {
			r.failed++
			continue
		}
		viaHTTP = append(viaHTTP, d)
	}
	r.set("server.handler_us", us(handler.median()))
	r.set("http.transport_us", us(viaHTTP.median()-handler.median()))
	return nil
}

// pendingDelta reads the dataset's pending inserts plus tombstones from
// GET /v1/datasets.
func (st *rwStack) pendingDelta() (int, error) {
	resp, err := st.client.Get(st.base + "/v1/datasets")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var list struct {
		Datasets []struct {
			Name            string `json:"name"`
			DeltaInserts    int    `json:"delta_inserts"`
			DeltaTombstones int    `json:"delta_tombstones"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, err
	}
	for _, d := range list.Datasets {
		if d.Name == rwName {
			return d.DeltaInserts + d.DeltaTombstones, nil
		}
	}
	return 0, fmt.Errorf("dataset %s not listed", rwName)
}

// priceSnapshot times touch.WriteSnapshot to a file plus its fsync.
func priceSnapshot(r *run, ds touch.Dataset, idx *touch.Index, budget time.Duration) error {
	var saves samples
	var size int64
	path := filepath.Join(r.tmp, "snapshot.bin")
	for i, start := 0, time.Now(); i < 3 || time.Since(start) < budget; i++ {
		t := time.Now()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		size, err = touch.WriteSnapshot(f, touch.SnapshotInfo{Name: rwName, Version: 1}, ds, idx)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		saves = append(saves, time.Since(t))
	}
	r.set("snapshot.save_ms", ms(saves.median()))
	r.set("snapshot.bytes", float64(size))
	r.timing("snapshot.save", saves, 50)
	return nil
}
