// Command perfbench is the repository's benchmark. Each invocation runs
// one workload in its own process, measures it for a fixed number of
// seconds, checks the program's outputs, and prints one JSON result as
// the last line of standard output:
//
//	perfbench --workload train-dense --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, derived from spans the
// benchmark records around its calls into each layer (see trace.go).
// --steady N runs every workload N times in child processes and prints
// the spread of every metric (see steady.go). Build and run it through
// run.sh from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// metricDef declares one reported metric. The end-to-end table must
// match BENCHMARK.json (pinned by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// e2eMetrics are reported by every workload with --trace 0. Each
// workload defines them for its own traffic; the definitions sit beside
// each workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"accuracy", "fraction", "higher", 0.1},
	{"rows_per_s", "rows/s", "higher", 0.25},
}

// layerMetrics are reported by every workload with --trace 1. A layer
// the workload bypasses reports 0: it did no work.
var layerMetrics = []metricDef{
	{name: "workload.latency_p50_ms", unit: "ms", better: "lower"},
	{name: "data.gen_s", unit: "s", better: "lower"},
	{name: "data.parse_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "engine.dense_pass_ms", unit: "ms", better: "lower"},
	{name: "engine.sparse_pass_ms", unit: "ms", better: "lower"},
	{name: "sgd.gradperturb_pass_ms", unit: "ms", better: "lower"},
	{name: "sgd.gradperturb_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "engine.sharded2_s", unit: "s", better: "lower"},
	{name: "engine.sharded2_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "rng.draws_per_update", unit: "count", better: "lower"},
	{name: "core.private_self_ms", unit: "ms", better: "lower"},
	{name: "core.private_overhead_x", unit: "x", better: "lower"},
	{name: "dp.perturb_us", unit: "us", better: "lower"},
	{name: "account.solve_sigma_ms", unit: "ms", better: "lower"},
	{name: "account.reserve_us", unit: "us", better: "lower"},
	{name: "store.append_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "store.bytes_per_row", unit: "count", better: "lower"},
	{name: "store.reload_ms", unit: "ms", better: "lower"},
	{name: "store.compact_s", unit: "s", better: "lower"},
	{name: "store.scan_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "store.read_overhead_x", unit: "x", better: "lower"},
	{name: "store.ingest_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "eval.score_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "serve.server_ms", unit: "ms", better: "lower"},
	{name: "serve.http_overhead_x", unit: "x", better: "lower"},
	{name: "serve.decode_share", unit: "fraction", better: "lower"},
	{name: "serve.request_bytes_per_row", unit: "count", better: "lower"},
	{name: "serve.publish_ms", unit: "ms", better: "lower"},
	{name: "serve.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "serve.latency_p999_ms", unit: "ms", better: "lower"},
	{name: "serve.shed_total", unit: "count", better: "lower"},
	{name: "serve.generator_late_ms", unit: "ms", better: "lower"},
	{name: "dist.overhead_x", unit: "x", better: "lower"},
	{name: "dist.install_ms", unit: "ms", better: "lower"},
	{name: "dist.install_bytes", unit: "count", better: "lower"},
	{name: "dist.epoch_round_ms", unit: "ms", better: "lower"},
	{name: "dist.epoch_bytes", unit: "count", better: "lower"},
	{name: "dist.calls_per_epoch", unit: "count", better: "lower"},
	{name: "dist.retries", unit: "count", better: "lower"},
	{name: "go.alloc_bytes_per_row", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_cpu_s", unit: "s", better: "lower"},
	{name: "traced.rows_per_s", unit: "rows/s", better: "higher"},
}

// workload is one set of inputs the benchmark runs. why, loads and
// bypasses are printed with every result.
type workload struct {
	name     string
	why      string
	loads    []string
	bypasses []string
	run      func(r *run) error
}

var workloads = []*workload{trainDense, ingestKDD, serveKDD, distKDD}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// defaultSeed is the seed whose accuracy each workload pins exactly.
const defaultSeed = 1

// run is the state of one workload invocation.
type run struct {
	seed    int64
	seconds time.Duration // length of the measured phase, after set-up and warm-up
	// scale shrinks every input size; the benchmark runs at 1, the
	// tests far below it.
	scale     float64
	setupReps int
	work      string  // this run's private work directory
	tr        *tracer // nil when untraced

	attempted, failed int
	failures          []string

	e2e   map[string]float64
	layer map[string]float64
	// rows counts the rows processed in the measured phase (training
	// rows·passes, rows ingested, rows scored) for go.alloc_bytes_per_row.
	rows float64
}

// size scales a base input size, never below floor.
func (r *run) size(base, floor int) int {
	return max(floor, int(float64(base)*r.scale))
}

// warmUp is how long each run exercises its workload before measuring:
// the first rounds of a fresh process run slower (connection pools,
// buffer pools and the heap are still growing).
const warmUp = 2 * time.Second

// setupBudget is how long the repeated set-ups of one run may take
// before setupRepeated stops at its minimum count: short set-ups are
// repeated more, so their median is as steady as a long one's.
const setupBudget = 2 * time.Second

var errNoSamples = errors.New("the measured phase produced no successful sample")

// tally sums work and wall time over the rounds of a run. Its rate is
// total work over total time: a few slow rounds move it in proportion,
// where they would flip a median between the modes of a two-mode
// distribution (a 2-way parallel job on 2 vCPUs has one).
type tally struct{ work, secs float64 }

func (t *tally) add(work float64, d time.Duration) {
	t.work += work
	t.secs += d.Seconds()
}

func (t tally) rate() float64 { return t.work / t.secs }

// checkAccuracy pins the released model's accuracy at the default seed
// and full size to its recorded value, exactly: the program is
// deterministic per seed, so any change in the figure is a change in
// its output.
func (r *run) checkAccuracy(got, want float64) {
	if r.scale == 1 && r.seed == defaultSeed {
		r.check(got == want, "accuracy %v at the default seed, recorded %v", got, want)
	}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
	return err
}

// check counts an output check as an operation; a failed check is a
// failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
	} else {
		r.op(fmt.Errorf("check failed: "+format, args...))
	}
}

// timed runs fn and returns its wall time. In a traced run it also
// records fn as a span called name under parent; fn receives the span
// id to nest its own spans under (-1 when untraced).
func (r *run) timed(name string, parent int, fn func(id int) error) (time.Duration, error) {
	id := -1
	if r.tr != nil {
		id = r.tr.start(name, parent)
	}
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	if r.tr != nil {
		r.tr.end(id)
	}
	return d, err
}

// count adds to a traced counter; a no-op when untraced.
func (r *run) count(name string, v float64) {
	if r.tr != nil {
		r.tr.count(name, v)
	}
}

// setupRepeated runs a workload's set-up at least setupReps times, and
// more (up to ten times as many) while the copies together took less
// than setupBudget, and reports the median wall time as setup_s. Every
// copy but the last is torn down; the last one's teardown is returned to
// the caller.
func setupRepeated[T any](r *run, fn func() (T, func(), error)) (T, func(), error) {
	var state T
	var times []float64
	cleanup := func() {}
	for i := 0; i < r.setupReps || (i < 10*r.setupReps && sum(times) < setupBudget.Seconds()*r.scale); i++ {
		cleanup()
		// Collect the torn-down copy, so the next one reuses its memory
		// and repeating the set-up does not raise the peak RSS the run
		// reports.
		state = *new(T)
		runtime.GC()
		start := time.Now()
		s, c, err := fn()
		if err != nil {
			return state, func() {}, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		state, cleanup = s, c
	}
	r.e2e["setup_s"] = median(times)
	return state, cleanup, nil
}

// dur scales a phase length the way size scales an input size.
func (r *run) dur(d time.Duration) time.Duration {
	return max(20*time.Millisecond, time.Duration(float64(d)*r.scale))
}

// spanMedian is the median length in milliseconds of the spans called
// name; 0 when there are none (untraced, or a layer the run bypasses).
func (r *run) spanMedian(name string) float64 {
	if r.tr == nil {
		return 0
	}
	d := r.tr.durations(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// measure runs warm-up rounds for warmUp (at least one), calls reset to
// discard what they recorded, then repeats round until the deadline (at
// least once), recording the Go runtime's allocation and GC counters
// over the measured rounds. Warm-up rounds run their output checks like
// any other; the spans they record are left out of the per-layer
// medians.
//
// Each round starts from a fresh collection, so garbage one round
// leaves does not make the runtime collect in the middle of the next
// round's timed calls; the forced collections sit outside the counters.
func (r *run) measure(reset func(), round func(i, span int) error) error {
	return r.measureRounds(0, 0, reset, round)
}

// measureRounds is measure with fixed round counts: warm warm-up rounds,
// then n measured rounds. The measured rounds start at even intervals
// over the measured phase, so they sample the machine's speed across
// all of it as a timed phase does; a round that overruns its interval
// delays the next. Zero counts fall back to measure's timed phases.
func (r *run) measureRounds(warm, n int, reset func(), round func(i, span int) error) error {
	i := 0
	var warmFrom int64
	if r.tr != nil {
		warmFrom = r.tr.now()
	}
	for start := time.Now(); i == 0 || (warm == 0 && time.Since(start) < r.dur(warmUp)) || i < warm; i++ {
		runtime.GC()
		if _, err := r.timed("warm-up", -1, func(id int) error { return round(i, id) }); err != nil {
			return err
		}
	}
	if r.tr != nil {
		r.tr.exclude(warmFrom, r.tr.now())
	}
	reset()
	r.rows = 0
	deadline := time.Now().Add(r.seconds)
	var total goRuntime
	phase := time.Now()
	for first := i; i == first || (n == 0 && time.Now().Before(deadline)) || i-first < n; i++ {
		if n > 0 {
			time.Sleep(time.Until(phase.Add(r.seconds * time.Duration(i-first) / time.Duration(n))))
		}
		runtime.GC()
		before := readGoRuntime()
		if _, err := r.timed("round", -1, func(id int) error { return round(i, id) }); err != nil {
			return err
		}
		after := readGoRuntime()
		total.allocBytes += after.allocBytes - before.allocBytes
		total.gcCycles += after.gcCycles - before.gcCycles
		total.gcCPUSeconds += after.gcCPUSeconds - before.gcCPUSeconds
	}
	if r.rows > 0 {
		r.layer["go.alloc_bytes_per_row"] = total.allocBytes / r.rows
	}
	r.layer["go.gc_cycles"] = total.gcCycles
	r.layer["go.gc_cpu_s"] = total.gcCPUSeconds
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs workload w and assembles its result.
func execute(w *workload, r *run) (result, error) {
	if err := w.run(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	defs, vals := e2eMetrics, r.e2e
	if r.tr != nil {
		defs, vals = layerMetrics, r.layer
		vals["traced.rows_per_s"] = r.e2e["rows_per_s"]
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && r.tr == nil {
			return result{}, fmt.Errorf("%s: metric %s not measured", w.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", w.name, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	return res, nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: train-dense, ingest-kdd, serve-kdd or dist-kdd (with --steady: all when empty)")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "directory for work files and traces")
	steady := flag.Int("steady", 0, "steadiness self-check: run each workload this many times (seeds 1..N) and print the spread of every metric")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *steady > 0 {
		return steadyCheck(*name, *steady, *seconds, *workdir)
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}

	runID := w.name + "-seed" + strconv.FormatInt(*seed, 10) + "-pid" + strconv.Itoa(os.Getpid())
	work := filepath.Join(*workdir, "work", runID)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := stampEnv(w.name, *seed, *trace == 1, *seconds, work)

	r := &run{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		scale:     1,
		setupReps: 3,
		work:      work,
		e2e:       map[string]float64{},
		layer:     map[string]float64{},
	}
	if *trace == 1 {
		r.tr = newTracer(runID)
	}
	res, err := execute(w, r)
	if err != nil {
		return err
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	if r.tr != nil {
		path, err := r.tr.write(filepath.Join(*workdir, "traces"), env)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	info, err := json.Marshal(map[string]any{
		"env": env, "why": w.why, "loads": w.loads, "bypasses": w.bypasses, "layer": r.layer,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
