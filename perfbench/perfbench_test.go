package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"boltondp/internal/data"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {1000000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated past the ends, as Python does
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "a", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps the first child
		{Name: "b", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{Name: "c", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "open", Parent: 0, Start: 70 * ms, End: -1}, // never closed: ignored
	}
	got := selfTimes(spans)
	// root: 100 - |[10,60] ∪ [90,100]| = 100 - 60 = 40.
	want := map[string]float64{"root": 40, "a": 25 + 30, "b": 30, "c": 5}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span got a self time")
	}
}

// Spans opened during the warm-up rounds stay out of the per-layer
// medians, whatever their parent (worker handlers record roots).
func TestDurationsSkipWarmUp(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{Name: "x", Parent: -1, Start: 0, End: 1e6},  // set-up
		{Name: "x", Parent: -1, Start: 10, End: 9e6}, // warm-up
		{Name: "x", Parent: 1, Start: 20, End: 8e6},  // warm-up, nested
		{Name: "x", Parent: -1, Start: 100, End: 2e6 + 100},
	}
	tr.exclude(10, 100)
	got := tr.durations("x")
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("durations = %v ms, want [1 2]", got)
	}
}

// tinyRun runs workload w at a small fraction of its benchmark size.
func tinyRun(t *testing.T, w *workload) (*run, result) {
	t.Helper()
	r := &run{
		seed: 3, seconds: 50 * time.Millisecond, scale: 0.01, setupReps: 1,
		work: t.TempDir(), e2e: map[string]float64{}, layer: map[string]float64{},
		tr: newTracer("test-" + w.name),
	}
	res, err := execute(w, r)
	if err != nil {
		t.Fatal(err)
	}
	return r, res
}

// TestWorkloadsSmoke runs every workload traced at tiny scale: every
// output check must pass, every metric must be reported, and the
// rows·passes the run counted must match its rounds and input sizes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, res := tinyRun(t, w)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, r.failures)
			}
			for _, d := range layerMetrics {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, d := range e2eMetrics {
				v, ok := r.e2e[d.name]
				if !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, %v", d.name, v, ok)
				}
			}
			if r.rows <= 0 {
				t.Fatalf("counted %v rows", r.rows)
			}
			// serve-kdd counts the rows its closed loop scored, which
			// depends on speed; the training workloads count
			// rows·passes, fixed per round.
			if w.name == "serve-kdd" {
				return
			}
			rounds := float64(len(r.tr.durations("round")))
			if want := rounds * tinyRowsPerRound(t, w.name, r); r.rows != want {
				t.Errorf("counted %v rows over %v measured rounds, want %v", r.rows, rounds, want)
			}
		})
	}
}

// tinyRowsPerRound recomputes, from the generators, the rows·passes one
// measured round of each workload processes at tinyRun's size.
func tinyRowsPerRound(t *testing.T, name string, r *run) float64 {
	switch name {
	case "train-dense":
		full := data.ScaleSim(r.seed, r.size(denseRows, 400), denseDim)
		train, _ := full.Split(rand.New(rand.NewSource(r.seed)), 0.9)
		gp := min(r.size(gpRows, 200), train.Len())
		return float64(2*train.Len()*densePasses + gp*gpPasses)
	case "ingest-kdd":
		train, _ := data.KDDSimSparse(rand.New(rand.NewSource(r.seed)), ingestScale*r.scale)
		return float64(train.Len() + 2*train.Len()*ingestPasses)
	case "dist-kdd":
		train, _ := data.KDDSimSparse(rand.New(rand.NewSource(r.seed)), distScale*r.scale)
		return float64(2 * train.Len() * distPasses)
	}
	t.Fatalf("no row accounting for %s", name)
	return 0
}

// TestMetricTablesMatchBenchmarkJSON pins BENCHMARK.json to the metric
// and workload tables the program reports.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %s (%q) in BENCHMARK.json, %s (%q) here", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if d := layerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}
