package bismarck

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"boltondp/internal/core"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

func buildTable(t *testing.T, m, d int, seed int64) *Table {
	t.Helper()
	tab := NewMemTable("t", d)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		if math.Abs(x[0]) < 0.3 {
			x[0] = math.Copysign(0.3, x[0])
		}
		vec.Normalize(x)
		if err := tab.Insert(x, math.Copysign(1, x[0])); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestPartitions(t *testing.T) {
	tab := buildTable(t, 103, 3, 1)
	parts, err := tab.Partitions(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("%d partitions", len(parts))
	}
	total := 0
	prev := 0
	for _, p := range parts {
		if p[0] != prev {
			t.Fatalf("gap: partition starts at %d, want %d", p[0], prev)
		}
		total += p[1] - p[0]
		prev = p[1]
	}
	if total != 103 || prev != 103 {
		t.Errorf("partitions cover %d of 103 rows", total)
	}
	if _, err := tab.Partitions(0); err == nil {
		t.Error("0 partitions accepted")
	}
	if _, err := tab.Partitions(104); err == nil {
		t.Error("more partitions than rows accepted")
	}
}

// Sharding a freshly loaded table whose tail page was never flushed
// must work: Shard flushes pending rows exactly as At does, so a
// direct engine.Run over the table — how sharded training reaches a
// table — sees every row.
func TestShardFlushesTailPage(t *testing.T) {
	tab := buildTable(t, 255, 4, 30) // 255 rows never fill page-sized batches
	f := loss.NewLogistic(1e-2, 0)
	p := f.Params()
	res, err := engine.Run(tab, engine.Config{
		Strategy: engine.Sharded,
		Workers:  2,
		SGD: sgd.Config{
			Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: 2, Batch: 5, Radius: 100,
			Rand: rand.New(rand.NewSource(31)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W) != 4 || res.Passes != 2 {
		t.Errorf("unexpected result shape: dim %d passes %d", len(res.W), res.Passes)
	}
}

func TestSegmentView(t *testing.T) {
	tab := buildTable(t, 50, 4, 2)
	seg := &segment{t: tab, lo: 10, hi: 25, scratch: make([]float64, 4)}
	if seg.Len() != 15 || seg.Dim() != 4 {
		t.Fatalf("segment shape %dx%d", seg.Len(), seg.Dim())
	}
	wantX, wantY := tab.At(12)
	want := vec.Copy(wantX)
	gotX, gotY := seg.At(2)
	if !vec.Equal(gotX, want, 0) || gotY != wantY {
		t.Error("segment At(2) != table At(12)")
	}
}

// sharded runs the engine's noiseless Sharded strategy over a table —
// the shared-nothing parallel UDA, merged by per-epoch averaging.
func sharded(t *testing.T, tab *Table, f loss.Function, workers, passes, batch int, radius float64, seed int64) *engine.Result {
	t.Helper()
	p := f.Params()
	res, err := engine.Run(tab, engine.Config{
		Strategy: engine.Sharded,
		Workers:  workers,
		SGD: sgd.Config{
			Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
			Passes: passes, Batch: batch, Radius: radius,
			Rand: rand.New(rand.NewSource(seed)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// privateSharded trains a table through the one private entry point at
// Sharded(workers): core calibrates the averaged-model noise.
func privateSharded(tab *Table, f loss.Function, workers, passes, batch int, radius float64, seed int64, extra ...core.Option) (*core.Result, error) {
	opts := append([]core.Option{
		core.WithStrategy(engine.Sharded, workers),
		core.WithBudget(dp.Budget{Epsilon: 1}),
		core.WithPasses(passes), core.WithBatch(batch), core.WithRadius(radius),
		core.WithRand(rand.New(rand.NewSource(seed))),
	}, extra...)
	return core.TrainCtx(context.Background(), tab, f, opts...)
}

func TestParallelOneWorkerMatchesShape(t *testing.T) {
	tab := buildTable(t, 400, 5, 3)
	res := sharded(t, tab, loss.NewLogistic(1e-2, 0), 1, 3, 10, 100, 4)
	if len(res.ShardModels) != 1 {
		t.Fatalf("%d partition models", len(res.ShardModels))
	}
	// Merge of one model is that model.
	if !vec.Equal(res.W, res.ShardModels[0], 1e-12) {
		t.Error("P=1 merge differs from the single model")
	}
	if res.Updates != 3*40 {
		t.Errorf("updates %d", res.Updates)
	}
}

func TestParallelTrainsAccurately(t *testing.T) {
	tab := buildTable(t, 2000, 5, 5)
	res := sharded(t, tab, loss.NewLogistic(1e-2, 0), 4, 5, 10, 100, 6)
	correct := 0
	for i := 0; i < tab.Len(); i++ {
		x, y := tab.At(i)
		if math.Copysign(1, vec.Dot(res.W, x)) == y {
			correct++
		}
	}
	if acc := float64(correct) / 2000; acc < 0.9 {
		t.Errorf("parallel merged accuracy %v", acc)
	}
}

func TestParallelDeterministic(t *testing.T) {
	run := func() []float64 {
		tab := buildTable(t, 300, 4, 7)
		res, err := privateSharded(tab, loss.NewLogistic(1e-2, 0), 3, 2, 5, 100, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	if !vec.Equal(run(), run(), 0) {
		t.Error("parallel run not deterministic under fixed seed")
	}
}

func TestParallelSensitivityFormula(t *testing.T) {
	// Strongly convex: Δ_parallel = 2L/(γ·minPart)/P; with equal
	// partitions minPart = m/P so this equals the sequential 2L/(γm).
	tab := buildTable(t, 1000, 4, 9)
	lambda := 1e-2
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	res, err := privateSharded(tab, f, 5, 2, 10, 1/lambda, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := dp.SensitivityStronglyConvex(p.L, p.Gamma, 200) / 5
	if math.Abs(res.Sensitivity-want) > 1e-15 {
		t.Errorf("sensitivity %v, want %v", res.Sensitivity, want)
	}
	seq := dp.SensitivityStronglyConvex(p.L, p.Gamma, 1000)
	if math.Abs(res.Sensitivity-seq) > 1e-15 {
		t.Errorf("parallel sensitivity %v should equal sequential %v (equal partitions)", res.Sensitivity, seq)
	}
}

// Sharded training over a table refuses what it cannot calibrate or
// run: gradient perturbation (its per-step accounting assumes one
// update stream — the white-box algorithms' problem under
// partitioning), more partitions than rows, a missing randomness
// source, an invalid budget and an empty table.
func TestParallelRejects(t *testing.T) {
	tab := buildTable(t, 100, 3, 11)
	f := loss.NewLogistic(1e-2, 0)
	if _, err := privateSharded(tab, f, 2, 1, 1, 100, 12, core.WithGradPerturb(1, 1),
		core.WithBudget(dp.Budget{Epsilon: 1, Delta: 1e-6})); err == nil {
		t.Error("gradient perturbation accepted under Sharded")
	}
	if _, err := privateSharded(tab, f, 101, 1, 1, 100, 12); err == nil {
		t.Error("more partitions than rows accepted")
	}
	if _, err := privateSharded(tab, f, 2, 1, 1, 100, 12, core.WithRand(nil)); err == nil {
		t.Error("nil rand accepted")
	}
	if _, err := privateSharded(tab, f, 2, 1, 1, 100, 12, core.WithBudget(dp.Budget{})); err == nil {
		t.Error("invalid budget accepted")
	}
	if _, err := privateSharded(NewMemTable("e", 3), f, 1, 1, 1, 100, 12); err == nil {
		t.Error("empty table accepted")
	}
}

// Parallel training over a disk table with a pool far smaller than the
// table: concurrent segment scans must be correct (run under -race in
// CI) and produce the same merged model as a memory table.
func TestParallelDiskTableSmallPool(t *testing.T) {
	mem := buildTable(t, 600, 5, 20)
	path := t.TempDir() + "/p.tbl"
	disk, err := CreateDiskTable(path, 5, 3) // 3-page pool, many pages
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Remove()
	if err := disk.InsertAll(mem); err != nil {
		t.Fatal(err)
	}
	f := loss.NewLogistic(1e-2, 0)
	rm := sharded(t, mem, f, 4, 3, 5, 100, 21)
	rd := sharded(t, disk, f, 4, 3, 5, 100, 21)
	if !vec.Equal(rm.W, rd.W, 1e-12) {
		t.Error("disk-backed parallel model differs from memory-backed one")
	}
	if disk.Stats().Reads == 0 {
		t.Error("no page reads recorded")
	}
}

// The empirical parallel-sensitivity property: replace one row, rerun
// the private Sharded(P) training with the same seeds, and the merged
// pre-noise models must stay within the Δ₂ the run was calibrated to.
func TestParallelEmpiricalSensitivityProperty(t *testing.T) {
	lambda := 0.05
	f := loss.NewLogistic(lambda, 0)
	p := f.Params()
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		m, d, workers := 120, 3, 3
		rows := make([][]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			vec.Normalize(x)
			rows[i] = x
			ys[i] = math.Copysign(1, r.NormFloat64())
		}
		build := func(alt int, ax []float64, ay float64) *Table {
			tab := NewMemTable("t", d)
			for i := 0; i < m; i++ {
				if i == alt {
					tab.Insert(ax, ay)
					continue
				}
				tab.Insert(rows[i], ys[i])
			}
			return tab
		}
		alt := r.Intn(m)
		nx := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		vec.Normalize(nx)

		r1, err := privateSharded(build(alt, rows[alt], ys[alt]), f, workers, 2, 2, 1/lambda, 500+seed)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := privateSharded(build(alt, nx, math.Copysign(1, r.NormFloat64())), f, workers, 2, 2, 1/lambda, 500+seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := dp.SensitivityStronglyConvex(p.L, p.Gamma, m/workers) / float64(workers); r1.Sensitivity != want {
			t.Fatalf("seed %d: calibrated Δ₂ %v, want %v", seed, r1.Sensitivity, want)
		}
		if dist := vec.Dist(r1.NonPrivate, r2.NonPrivate); dist > r1.Sensitivity+1e-9 {
			t.Fatalf("seed %d: parallel empirical sensitivity %v exceeds calibrated Δ₂ %v", seed, dist, r1.Sensitivity)
		}
	}
}
