package main

import (
	"fmt"
	"slices"
	"time"

	"touch"
)

// join-dense: one-shot TOUCH ε-distance joins of two Gaussian datasets,
// single caller, pairs materialized, default configuration.
const (
	joinSizeA = 40_000
	joinSizeB = 120_000
	joinEps   = 10.0
)

type joinInput struct {
	boxA, boxB   []touch.Box
	textA, textB []byte
}

func genJoin(seed uint64) joinInput {
	in := joinInput{
		boxA: gaussianBoxes(rng(seed, streamA), joinSizeA),
		boxB: gaussianBoxes(rng(seed, streamB), joinSizeB),
	}
	in.textA, in.textB = encode(in.boxA), encode(in.boxB)
	return in
}

type joinSets struct{ a, b touch.Dataset }

// setup parses both inputs; the one-shot join builds its own index on
// every call, so parsing is all the set-up the program does.
func (in joinInput) setup() (joinSets, error) {
	a, err := parse(in.textA, joinSizeA)
	if err != nil {
		return joinSets{}, err
	}
	b, err := parse(in.textB, joinSizeB)
	return joinSets{a, b}, err
}

// oracle is the plane-sweep pair set, sorted; every pair is also checked
// against the benchmark's own ε-predicate.
func (in joinInput) oracle(r *run, s joinSets) ([]touch.Pair, error) {
	res, err := touch.DistanceJoin(touch.AlgPS, s.a, s.b, joinEps, nil)
	if err != nil {
		return nil, fmt.Errorf("plane-sweep oracle: %w", err)
	}
	res.SortPairs()
	for _, p := range res.Pairs {
		if !intersects(in.boxA[p.A].Expand(joinEps), in.boxB[p.B]) {
			r.fail("plane-sweep pair %v fails the ε-predicate", p)
			break
		}
	}
	return res.Pairs, nil
}

// joinOnce runs the measured operation and checks its pair count.
func joinOnce(r *run, s joinSets, want int, opt *touch.Options) (*touch.Result, time.Duration) {
	start := time.Now()
	res, err := touch.DistanceJoin(touch.AlgTOUCH, s.a, s.b, joinEps, opt)
	d := time.Since(start)
	r.attempted++
	if err != nil {
		r.failed++
		return nil, d
	}
	if len(res.Pairs) != want || res.Stats.Results != int64(want) {
		r.fail("join returned %d pairs (stats %d), want %d", len(res.Pairs), res.Stats.Results, want)
	}
	r.repeat("core.comparisons", res.Stats.Comparisons)
	r.repeat("core.results", res.Stats.Results)
	return res, d
}

// checkPairs compares one TOUCH pair set with the oracle's.
func checkPairs(r *run, res *touch.Result, want []touch.Pair) {
	if res == nil {
		return
	}
	res.SortPairs()
	if !slices.Equal(res.Pairs, want) {
		r.fail("TOUCH pair set differs from the plane-sweep pair set")
	}
}

func measureJoin(r *run) error {
	in := genJoin(r.seed)
	s, err := setupTimes(r, in.setup, func(joinSets) {})
	if err != nil {
		return err
	}
	want, err := in.oracle(r, s)
	if err != nil {
		return err
	}
	joinOnce(r, s, len(want), nil) // warm-up, checked but not timed

	var lat samples
	var last *touch.Result
	start := time.Now()
	for time.Since(start) < r.seconds {
		res, d := joinOnce(r, s, len(want), nil)
		lat = append(lat, d)
		if res != nil {
			last = res
		}
	}
	setOpMetrics(r, lat, time.Since(start))
	checkPairs(r, last, want)
	return nil
}

// rssJoin: parse, then three joins with pairs materialized.
func rssJoin(r *run) error {
	s, err := genJoin(r.seed).setup()
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := touch.DistanceJoin(touch.AlgTOUCH, s.a, s.b, joinEps, nil); err != nil {
			return err
		}
	}
	return nil
}

// layersJoin prices the join's layers: the engine's own phase split and
// counters (Result.Stats), BuildIndex on the ε-expanded A, the probe of
// B against that prebuilt index, and the cost of the opt-in trace span.
func layersJoin(r *run) error {
	in := genJoin(r.seed)
	s, err := in.setup()
	if err != nil {
		return err
	}
	want, err := in.oracle(r, s)
	if err != nil {
		return err
	}
	budget := r.seconds / 10

	// Engine split from the timed joins' own statistics.
	var build, assign, join samples
	var last *touch.Result
	for i, start := 0, time.Now(); i < 5 || time.Since(start) < 3*budget; i++ {
		res, _ := joinOnce(r, s, len(want), nil)
		if res == nil {
			continue
		}
		build = append(build, res.Stats.BuildTime)
		assign = append(assign, res.Stats.AssignTime)
		join = append(join, res.Stats.JoinTime)
		last = res
	}
	if last == nil {
		return fmt.Errorf("every join failed")
	}
	st := last.Stats
	r.set("core.build_ms", ms(build.median()))
	r.set("core.assign_ms", ms(assign.median()))
	r.set("core.join_ms", ms(join.median()))
	r.set("core.comparisons", float64(st.Comparisons))
	r.set("core.filtered", float64(st.Filtered))
	r.set("core.results", float64(st.Results))
	if st.Comparisons > 0 {
		r.set("core.results_per_comparison", float64(st.Results)/float64(st.Comparisons))
	}
	r.set("core.memory_mb", float64(st.MemoryBytes)/(1<<20))
	checkPairs(r, last, want)

	// BuildIndex and the probe of B against the prebuilt index.
	expanded := s.a.Expand(joinEps)
	var builds, probes samples
	var idx *touch.Index
	for i, start := 0, time.Now(); i < 3 || time.Since(start) < budget; i++ {
		t := time.Now()
		idx = touch.BuildIndex(expanded, touch.TOUCHConfig{})
		builds = append(builds, time.Since(t))
	}
	for i, start := 0, time.Now(); i < 3 || time.Since(start) < 2*budget; i++ {
		t := time.Now()
		res := idx.Join(s.b, nil)
		probes = append(probes, time.Since(t))
		r.attempted++
		if len(res.Pairs) != len(want) {
			r.fail("Index.Join returned %d pairs, want %d", len(res.Pairs), len(want))
		}
	}
	r.set("index.build_ms", ms(builds.median()))
	r.set("index.probe_ms", ms(probes.median()))
	r.timing("index.build", builds, 50)
	r.timing("index.probe", probes, 50)

	// Trace overhead: alternate nil-span and live-span joins.
	var plain, traced samples
	for i, start := 0, time.Now(); i < 6 || time.Since(start) < 4*budget; i++ {
		opt := (*touch.Options)(nil)
		if i%2 == 1 {
			opt = &touch.Options{Trace: &touch.Span{}}
		}
		_, d := joinOnce(r, s, len(want), opt)
		if opt == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
		}
	}
	r.set("trace.overhead_pct", overheadPct(plain, traced))
	return nil
}
