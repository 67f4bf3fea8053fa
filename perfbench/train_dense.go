package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"boltondp/internal/account/compose"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// trainDense is the paper's Fig. 5 comparison on in-memory dense data:
// bolt-on output perturbation (Algorithm 2, ε-DP) against its noiseless
// twin on the identical step schedule, and against white-box gradient
// perturbation under rdp accounting.
//
// End-to-end metrics on this workload:
//   - rows_per_s: private training rows·passes per second of private
//     training wall
//   - accuracy: test accuracy of the released private model
//   - setup_s: generating and splitting the dataset
//
// Reported per layer: core.private_overhead_x (private wall ÷ noiseless
// wall, summed over the interleaved pairs) and workload.latency_p50_ms
// (median wall of one private training job).
var trainDense = &workload{
	name: "train-dense",
	why:  "dense kernel and privacy layers alone (no store, wire or JSON): bolt-on private vs noiseless twin vs gradient perturbation, the paper's Fig. 5",
	loads: []string{"data (ScaleSim)", "vec/loss/sgd dense kernel", "engine.Sequential", "core", "dp", "account (rdp, SolveSGMSigma)",
		"rng (Poisson batches, Gaussian noise)", "eval", "go runtime"},
	bypasses: []string{"store", "serve", "dist", "sparse kernel", "JSON"},
	run:      runTrainDense,
}

// Train-dense parameters. One interleaved round takes under a second,
// so a run sums over ~20 rounds.
const (
	denseRows      = 200000 // generated; 90% train, 10% test
	denseDim       = 50
	denseBatch     = 50
	densePasses    = 2
	denseLambda    = 1e-2
	denseEpsilon   = 1.0
	gpRows         = 8000 // Poisson batching costs O(m) draws per update
	gpPasses       = 2
	gpDelta        = 1e-6
	gpClip         = 1.0
	gpPerturbProbe = 2000 // dp.Budget.Perturb calls timed in the traced run
)

// denseAccuracy is the released model's test accuracy at defaultSeed.
const denseAccuracy = 0.8926000000000001

type denseData struct {
	train, test, gp *data.Dataset
}

func runTrainDense(r *run) error {
	m := r.size(denseRows, 400)
	set, cleanup, err := setupRepeated(r, func() (denseData, func(), error) {
		var full *data.Dataset
		r.timed("data.gen", -1, func(int) error {
			full = data.ScaleSim(r.seed, m, denseDim)
			return nil
		})
		train, test := full.Split(rand.New(rand.NewSource(r.seed)), 0.9)
		n := min(r.size(gpRows, 200), train.Len())
		gp := &data.Dataset{Name: "gp", X: train.X[:n], Y: train.Y[:n], Classes: 2}
		return denseData{train, test, gp}, func() {}, nil
	})
	defer cleanup()
	if err != nil {
		return err
	}
	f := loss.NewLogistic(denseLambda, 0)
	ctx := context.Background()
	budget := dp.Budget{Epsilon: denseEpsilon}
	gpBudget := dp.Budget{Epsilon: denseEpsilon, Delta: gpDelta}
	p := f.Params()

	private := func(parent int) (*core.Result, time.Duration, error) {
		var res *core.Result
		d, err := r.timed("core.train", parent, func(int) error {
			var err error
			res, err = core.TrainCtx(ctx, set.train, f,
				core.WithBudget(budget), core.WithPasses(densePasses), core.WithBatch(denseBatch),
				core.WithRadius(1/denseLambda), core.WithStrategy(engine.Sequential, 1),
				core.WithRand(rand.New(rand.NewSource(r.seed))))
			return err
		})
		return res, d, r.op(err)
	}
	// The noiseless twin runs the engine with exactly the configuration
	// Algorithm 2 hands it, so it sees the same permutation and steps.
	noiseless := func(parent int) (*engine.Result, time.Duration, error) {
		var res *engine.Result
		d, err := r.timed("engine.run", parent, func(int) error {
			var err error
			res, err = engine.Run(set.train, engine.Config{SGD: sgd.Config{
				Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma),
				Passes: densePasses, Batch: denseBatch, Radius: 1 / denseLambda,
				Rand: rand.New(rand.NewSource(r.seed)),
			}})
			return err
		})
		return res, d, r.op(err)
	}
	gradPerturb := func(parent int, src rand.Source) (*core.Result, time.Duration, error) {
		var res *core.Result
		d, err := r.timed("core.gradperturb", parent, func(int) error {
			var err error
			res, err = core.TrainCtx(ctx, set.gp, f,
				core.WithBudget(gpBudget), core.WithPasses(gpPasses), core.WithBatch(denseBatch),
				core.WithRadius(1/denseLambda), core.WithAccounting(compose.RuleRDP),
				core.WithGradPerturb(gpClip, 0), core.WithRand(rand.New(src)))
			return err
		})
		return res, d, r.op(err)
	}

	var priv, plain, gp tally
	var lats []float64
	var firstW, firstGP []float64
	rows := float64(set.train.Len() * densePasses)
	gpRowsDone := float64(set.gp.Len() * gpPasses)
	err = r.measure(func() { priv, plain, gp, lats = tally{}, tally{}, tally{}, nil }, func(i, round int) error {
		var pr *core.Result
		var nr *engine.Result
		var pd, nd time.Duration
		var perr, nerr error
		// Alternate which twin runs first, so drift within a round
		// does not bias the ratio.
		if i%2 == 0 {
			pr, pd, perr = private(round)
			nr, nd, nerr = noiseless(round)
		} else {
			nr, nd, nerr = noiseless(round)
			pr, pd, perr = private(round)
		}
		if perr == nil && nerr == nil {
			priv.add(rows, pd)
			plain.add(rows, nd)
			lats = append(lats, float64(pd)/1e6)
			r.rows += 2 * rows
			r.check(bitEqual(pr.NonPrivate, nr.Model()), "train-dense: private run's pre-noise model differs from its noiseless twin")
			r.check(pr.Passes == densePasses && nr.Passes == densePasses,
				"train-dense: runs made %d and %d passes, rows·passes counts %d", pr.Passes, nr.Passes, densePasses)
			if firstW == nil {
				firstW = pr.W
			}
			r.check(bitEqual(pr.W, firstW), "train-dense: private model differs between rounds at one seed")
		}
		gr, gd, gerr := gradPerturb(round, rand.NewSource(r.seed))
		if gerr == nil {
			gp.add(gpRowsDone, gd)
			r.rows += gpRowsDone
			if firstGP == nil {
				firstGP = gr.W
			}
			r.check(bitEqual(gr.W, firstGP), "train-dense: gradient-perturbation model differs between rounds at one seed")
			r.check(gr.Passes == gpPasses, "train-dense: gradient perturbation made %d passes, rows·passes counts %d", gr.Passes, gpPasses)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(lats) == 0 || gp.secs == 0 {
		return errNoSamples
	}
	r.e2e["rows_per_s"] = priv.rate()
	r.layer["core.private_overhead_x"] = priv.secs / plain.secs
	r.layer["workload.latency_p50_ms"] = median(lats)
	acc := eval.Accuracy(set.test, &eval.Linear{W: firstW})
	r.e2e["accuracy"] = acc
	r.checkAccuracy(acc, denseAccuracy)
	r.layer["sgd.gradperturb_rows_per_s"] = gp.rate()

	if r.tr == nil {
		return nil
	}
	// Per-layer probes, after the measured phase.
	r.layer["data.gen_s"] = r.spanMedian("data.gen") / 1e3
	r.layer["engine.dense_pass_ms"] = r.spanMedian("engine.run") / densePasses
	r.layer["sgd.gradperturb_pass_ms"] = r.spanMedian("core.gradperturb") / gpPasses
	r.layer["core.private_self_ms"] = r.spanMedian("core.train") - r.spanMedian("engine.run")

	w := append([]float64(nil), firstW...)
	pr := rand.New(rand.NewSource(r.seed))
	sens := dp.SensitivityStronglyConvex(p.L, p.Gamma, set.train.Len())
	for range gpPerturbProbe {
		r.timed("dp.perturb", -1, func(int) error {
			_, err := budget.Perturb(pr, w, sens)
			return err
		})
	}
	r.layer["dp.perturb_us"] = r.spanMedian("dp.perturb") * 1e3

	q := float64(denseBatch) / float64(set.gp.Len())
	steps := gpPasses * (set.gp.Len() / denseBatch)
	for range 5 {
		r.timed("account.solve_sigma", -1, func(int) error {
			_, err := compose.SolveSGMSigma(compose.RuleRDP, q, steps, gpBudget)
			return r.op(err)
		})
	}
	r.layer["account.solve_sigma_ms"] = r.spanMedian("account.solve_sigma")

	src := &countingSource{src: rand.NewSource(r.seed).(rand.Source64)}
	gr, _, err := gradPerturb(-1, src)
	if err == nil {
		r.check(bitEqual(gr.W, firstGP), "train-dense: counting rand.Source changed the gradient-perturbation model")
		r.layer["rng.draws_per_update"] = float64(src.n) / float64(gr.Updates)
	}
	return nil
}

// countingSource counts every draw a rand.Rand makes from it. It
// implements rand.Source64 like the source it wraps, so rand.Rand
// consumes it exactly as it would the bare source.
type countingSource struct {
	src rand.Source64
	n   int64
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// bitEqual reports whether two vectors agree bit for bit.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
