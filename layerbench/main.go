// Command layerbench is the repository's benchmark: three workloads
// (join-dense, read-routed, readwrite-http) priced end to end, plus a
// separate traced run that prices each layer a request crosses by
// timing calls into that layer's public functions from outside.
//
// Usage (from the repository root, normally through run.sh):
//
//	layerbench --workload join-dense --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set; the lines
// before it print the run metadata and every metric by name and unit.
// The process exits non-zero, without a result line, if the workload
// cannot run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// their median.
const setupReps = 5

// workload runs one named workload. measure fills r with end-to-end
// metrics (untraced run); layers fills it with per-layer metrics
// (traced run); rss sets up once and runs a fixed slice of the workload
// in a fresh process whose peak RSS the parent reads.
type workload struct {
	name    string
	measure func(r *run) error
	layers  func(r *run) error
	rss     func(r *run) error
}

var workloads = []workload{
	{"join-dense", measureJoin, layersJoin, rssJoin},
	{"read-routed", measureRouted, layersRouted, rssRouted},
	{"readwrite-http", measureRW, layersRW, rssRW},
}

// spec names a reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd is the untraced run's metric set, reported by every
// workload. "op" is the workload's primary operation: one join on
// join-dense, one read request on read-routed and readwrite-http.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"}, // p90
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer is the traced run's metric set. Every workload reports all
// of them; a layer the workload's requests never cross reads 0. README.md
// maps each to the end-to-end metric it should move.
var perLayer = []spec{
	{"index.build_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.assign_ms", "ms"},
	{"core.join_ms", "ms"},
	{"core.comparisons", "count"},
	{"core.filtered", "count"},
	{"core.results", "count"},
	{"core.results_per_comparison", "ratio"},
	{"core.memory_mb", "MB"},
	{"index.probe_ms", "ms"},
	{"index.range_us", "us"},
	{"index.knn_us", "us"},
	{"index.range_ids", "count"},
	{"wire.window_us", "us"},
	{"router.window_us", "us"},
	{"router.self_us", "us"},
	{"router.failovers", "count"},
	{"router.backend_errors", "count"},
	{"server.pipeline_depth", "count"},
	{"server.admission_us", "us"},
	{"server.decode_us", "us"},
	{"server.query_us", "us"},
	{"server.encode_us", "us"},
	{"server.handler_us", "us"},
	{"http.transport_us", "us"},
	{"overlay.range_us", "us"},
	{"overlay.knn_us", "us"},
	{"server.overlay_us", "us"},
	{"server.delta_us", "us"},
	{"catalog.delta_objects", "count"},
	{"catalog.compactions", "count"},
	{"catalog.compactions_skipped", "count"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"loadgen.write_p50_us", "us"},
	{"loadgen.write_p99_us", "us"},
	{"loadgen.write_lag_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// run carries one invocation's parameters and accumulates its results.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	tmp      string // scratch directory inside the checkout

	metrics   map[string]float64
	meta      map[string]any
	counts    map[string]int64 // determinism counts; see repeat
	attempted int64
	failed    int64 // failed or refused operations
	wrong     int64 // operations whose answer disagreed with the oracle
	problems  []string
}

// set records a metric value by name; print picks the names of the
// run's metric set.
func (r *run) set(name string, value float64) { r.metrics[name] = value }

func (r *run) note(key string, v any) { r.meta[key] = v }

// repeat records a count that must be the same every time it is taken
// for this seed: on every join of a run, and on every path that
// answers the same reads. A second, different value is a wrong answer.
// The counts are printed under "determinism", so runs with the same
// seed can be compared too.
func (r *run) repeat(name string, v int64) {
	if old, ok := r.counts[name]; ok && old != v {
		r.fail("determinism: %s was %d, now %d", name, old, v)
	}
	r.counts[name] = v
}

// fail records a wrong answer; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	r.wrong++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: join-dense, read-routed or readwrite-http")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measured time per run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (separate traced run)")
	rssChild := flag.Bool("rss-child", false, "internal: set up once in this fresh process and run a fixed slice of the workload")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: need --workload (join-dense|read-routed|readwrite-http), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *rssChild); err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
		os.Exit(1)
	}
}

// execute runs one invocation: the workload's untraced or traced step
// and the result lines, or, in an --rss-child process, the fixed slice
// whose peak RSS the parent reads.
func execute(w *workload, seed uint64, seconds time.Duration, traced, rssChild bool) error {
	tmp, err := os.MkdirTemp("", "layerbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r := &run{
		workload: w.name,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		tmp:      tmp,
		metrics:  map[string]float64{},
		meta:     map[string]any{},
		counts:   map[string]int64{},
	}
	if rssChild {
		return w.rss(r)
	}

	r.note("workload", w.name)
	r.note("seed", r.seed)
	r.note("seconds", r.seconds.Seconds())
	r.note("traced", r.traced)
	r.note("nproc", runtime.NumCPU())
	r.note("gomaxprocs", runtime.GOMAXPROCS(0))
	r.note("go_version", runtime.Version())
	r.note("commit", commit())

	step := w.measure
	if r.traced {
		step = w.layers
	}
	if err := step(r); err != nil {
		return err
	}
	if !r.traced {
		mb, err := childPeakRSS(r)
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", mb)
		r.set("success_rate", 1-float64(r.failedOps())/float64(max(r.attempted, 1)))
	}
	return r.print()
}

// failedOps counts failed operations plus wrong answers, at most one
// per attempted operation (a wrong join can fail both its count check
// and the pair-set check).
func (r *run) failedOps() int64 { return min(r.failed+r.wrong, max(r.attempted, 1)) }

// print writes the metadata, a name/value/unit table and, last, the
// result object.
func (r *run) print() error {
	r.note("attempted", r.attempted)
	r.note("failed", r.failed)
	r.note("wrong", r.wrong)
	r.note("determinism", r.counts)
	if len(r.problems) > 0 {
		r.note("problems", r.problems)
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", meta)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.wrong == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failedOps(),
		Metrics:   map[string]value{},
	}
	set := endToEnd
	if r.traced {
		set = perLayer
	}
	for _, m := range set {
		v, ok := r.metrics[m.name]
		if !ok && !r.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		fmt.Printf("metric %-28s %16.6f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// commit names the source revision when the working directory is the
// top of a git work tree, "unknown" otherwise; git may not look above it.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// rssChildren is how many fresh processes peak_rss_mb takes the
// median of: a single child's peak moves by up to 10% with where its
// garbage collections happen to fall.
const rssChildren = 3

// childPeakRSS re-runs this binary rssChildren times with --rss-child,
// which sets the workload up once and runs a fixed slice of it, and
// returns the median of the children's peak resident sets (VmHWM, as
// reported by wait4) in MiB.
func childPeakRSS(r *run) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var peaks []float64
	for i := 0; i < rssChildren; i++ {
		cmd := exec.Command(exe, "--rss-child", "--workload", r.workload, "--seed", fmt.Sprint(r.seed))
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("rss child: %w", err)
		}
		peaks = append(peaks, float64(maxRSSKiB(cmd.ProcessState))/1024)
	}
	slices.Sort(peaks)
	r.note("peak_rss_children_mb", peaks)
	return peaks[len(peaks)/2], nil
}

// samples is a set of latencies.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1). It sorts s
// in place.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setOpMetrics reports the latency and throughput of the workload's
// primary operation over the measured time: the median, the p90 and
// completions per second. The tail is p90 rather than p99 because
// bursts of outside load on a shared machine move a run's p99 by up to
// 2× (see README.md); the p99 is printed with the run metadata.
func setOpMetrics(r *run, lat samples, elapsed time.Duration) {
	r.set("op_p50_ms", ms(lat.median()))
	r.set("op_tail_ms", ms(lat.quantile(0.90)))
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds())
	r.timing("op", lat, 50, 90, 99)
}

// tracedTurn reports whether send i of a traced/untraced pair series
// asks for a trace. Each read is sent twice in a row, and the second
// send finds its data in cache, so the order alternates between pairs.
func tracedTurn(i int) bool { return i%2 != (i/2)%2 }

// overheadPct is the traced median's excess over the plain median, in
// percent of the plain median.
func overheadPct(plain, traced samples) float64 {
	p := plain.median()
	if p <= 0 {
		return 0
	}
	return 100 * float64(traced.median()-p) / float64(p)
}

// timing records one latency summary in the metadata: sample count and
// the percentiles reported.
func (r *run) timing(name string, s samples, pcts ...float64) {
	t := map[string]any{"samples": len(s)}
	for _, p := range pcts {
		t[fmt.Sprintf("p%g_us", p)] = us(s.quantile(p / 100))
	}
	r.note(name, t)
}

// setupTimes runs setup setupReps times, tearing each instance down
// before the next, and returns the median wall time together with the
// last instance (left running).
func setupTimes[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var times samples
	var inst T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(inst)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start))
		inst = v
	}
	r.set("setup_s", times.median().Seconds())
	r.timing("setup", times, 50)
	return inst, nil
}
