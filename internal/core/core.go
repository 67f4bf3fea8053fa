// Package core implements the paper's primary contribution: the bolt-on
// differentially private PSGD algorithms — Algorithm 1 (convex) and
// Algorithm 2 (strongly convex) — together with all the extensions of
// §3.2.3 (mini-batching, model averaging, fresh permutations,
// constrained optimization, (ε,δ)-DP via Gaussian noise) and the three
// convex step-size families of Corollaries 1–3.
//
// The defining property of the approach is preserved structurally: this
// package calls the execution engine strictly as a black box
// (engine.Run with no GradNoise hook) and perturbs only the returned
// model, with noise calibrated by the sensitivity calculus in
// internal/dp. The engine strategy — sequential, sharded across
// workers, or streaming — is a run-time choice (WithStrategy), and
// calibrate is the only place that has to know about it:
// sharded runs evaluate the per-shard bound at the smallest shard and
// divide by the worker count (see dp.SensitivityShardedStronglyConvex),
// streaming runs are pinned to a single pass. Swapping in any other
// conforming SGD implementation — e.g. the Bismarck-style in-RDBMS
// engine in internal/bismarck — requires no change here, which is the
// paper's "ease of integration" claim in code form.
package core

import (
	"errors"
	"fmt"
	"math"

	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// StepKind selects the convex step-size family (Table 4 + Cors 2–3).
type StepKind int

const (
	// StepConstant is η_t = η = min(1/√m, 2/β) (Algorithm 1, Table 4's
	// default clamped to Lemma 1.1's validity boundary).
	StepConstant StepKind = iota
	// StepDecreasing is η_t = 2/(β(t+m^c)), c = 0.5 (Corollary 2).
	StepDecreasing
	// StepSqrt is η_t = 2/(β(√t+m^c)), c = 0.5 (Corollary 3).
	StepSqrt
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepConstant:
		return "constant"
	case StepDecreasing:
		return "decreasing"
	case StepSqrt:
		return "sqrt"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Convexity selects which of the paper's two algorithms a TrainCtx run
// uses. The zero value (ConvexityAuto) derives it from the loss — the
// right choice everywhere outside reproduction studies that need
// Algorithm 1's noise on a strongly convex objective.
type Convexity int

const (
	// ConvexityAuto derives the algorithm from the loss: Algorithm 2
	// when f.Params().StronglyConvex(), Algorithm 1 otherwise.
	ConvexityAuto Convexity = iota
	// ConvexityConvex forces Algorithm 1 (the convex trainer). Legal
	// for any convex loss, including strongly convex ones — Algorithm 2
	// would give strictly less noise there, which is exactly why a
	// reproduction might force the comparison.
	ConvexityConvex
	// ConvexityStronglyConvex forces Algorithm 2; the run fails if the
	// loss is not strongly convex (γ = 0).
	ConvexityStronglyConvex
)

// String implements fmt.Stringer.
func (c Convexity) String() string {
	switch c {
	case ConvexityAuto:
		return "auto"
	case ConvexityConvex:
		return "convex"
	case ConvexityStronglyConvex:
		return "strongly-convex"
	default:
		return fmt.Sprintf("Convexity(%d)", int(c))
	}
}

// Result reports one private training run.
type Result struct {
	// W is the differentially private model — the only field safe to
	// release under the stated budget.
	W []float64

	// NonPrivate is the pre-noise SGD output. It is NOT private and is
	// exposed only so experiments can report the accuracy cost of the
	// perturbation. Never publish it.
	NonPrivate []float64

	// Sensitivity is the L2-sensitivity Δ₂ the noise was calibrated to.
	Sensitivity float64

	// NoiseNorm is ‖κ‖, the realized noise magnitude.
	NoiseNorm float64

	// Updates and Passes echo the underlying engine run. Under the
	// Sharded strategy Updates is summed across workers and Passes
	// counts merge epochs.
	Updates int
	Passes  int
}

// paperC is the m^c offset exponent of the decreasing and square-root
// convex schedules: the paper's c = 0.5 (Corollaries 2–3).
const paperC = 0.5

// calibration is everything a run's privacy depends on, decided in one
// place: the options with the budget drawn and the paper defaults
// resolved, the step schedule in its wire form (the in-process and the
// distributed executors both build it), and the Δ₂ the output noise is
// scaled to.
type calibration struct {
	options
	step dist.StepSpec
	sens float64
}

// calibrate is the only code that decides a run's calibration. It
// draws the budget, validates the options, picks the algorithm —
// gradient perturbation, else Algorithm 2 when Convexity forces it or
// (under ConvexityAuto) the loss is strongly convex, else Algorithm 1 —
// resolves the defaults at n (the smallest shard under Sharded(P), m
// otherwise), clamps the batch to n as the engine does, and returns the
// step schedule with its sensitivity:
//
//	Δ₂ = 2kLη/(bP)                          (convex constant, Corollary 1)
//	Δ₂ = (4L/β)(1/(b·n^c) + ln k/n)/P        (convex decreasing, Corollary 2, batch-aware)
//	Δ₂ = (4L/(bβ))Σ_j 1/√(j·n/b+1+n^c)/P     (convex square-root, Corollary 3, batch-aware)
//	Δ₂ = 2L/(γnP)                            (strongly convex, Lemma 8, sound batch-aware form)
//
// with η = min(1/√n, 2/β) (Table 4's default clamped to Lemma 1.1's
// validity boundary) and c = 0.5. For equal shards the strongly convex
// bound is exactly the sequential 2L/(γm): parallelism is privacy-free
// (the paper's multicore punchline). Under Streaming, k is pinned to 1.
// Only Algorithm 2's Δ₂ is independent of k, so only it admits Tol
// early stopping (§4.3). Gradient perturbation reuses the convex step
// families — there the clip, not the schedule, bounds sensitivity — and
// reports the per-step Δ₂ = 2·clip.
func calibrate(o options, f loss.Function, m int) (calibration, error) {
	if err := o.fillBudget(); err != nil {
		return calibration{}, err
	}
	if err := o.validate(); err != nil {
		return calibration{}, err
	}
	p := f.Params()
	strongly := false
	switch {
	case o.GradPerturb != nil:
		if err := o.checkGradPerturb(); err != nil {
			return calibration{}, err
		}
	case o.Convexity == ConvexityStronglyConvex || o.Convexity == ConvexityAuto && p.StronglyConvex():
		if !p.StronglyConvex() {
			return calibration{}, fmt.Errorf("core: loss %q is not strongly convex (γ=0); use the convex algorithm (WithConvexity(ConvexityConvex))", f.Name())
		}
		strongly = true
	case o.Tol > 0:
		return calibration{}, errors.New("core: Tol-based early stopping is not private in the convex case (noise depends on k); fix Passes instead")
	}
	if m == 0 {
		return calibration{}, errors.New("core: empty training set")
	}
	n, err := o.shardSize(m)
	if err != nil {
		return calibration{}, err
	}
	if o.Passes == 0 {
		o.Passes = 1
	}
	if o.Batch == 0 {
		o.Batch = 1
	}
	if err := o.checkStreaming(); err != nil {
		return calibration{}, err
	}
	if o.Batch > n {
		o.Batch = n // mirror the engine's clamp so Δ₂ is not over-divided
	}

	c := calibration{options: o}
	workers := o.effWorkers()
	switch {
	case strongly:
		c.step = dist.StepSpec{Kind: dist.StepStronglyConvex, Beta: p.Beta, Gamma: p.Gamma}
		if o.PaperBatchSensitivity {
			c.sens = dp.SensitivityStronglyConvexPaperBatch(p.L, p.Gamma, n, o.Batch) / float64(workers)
		} else {
			c.sens = dp.SensitivityShardedStronglyConvex(p.L, p.Gamma, n, workers)
		}
	case o.Step == StepConstant:
		eta := math.Min(1/math.Sqrt(float64(n)), 2/p.Beta)
		c.step = dist.StepSpec{Kind: dist.StepConstant, Eta: eta}
		c.sens = dp.SensitivityShardedConvexConstant(p.L, eta, o.Passes, o.Batch, workers)
	case o.Step == StepDecreasing:
		c.step = dist.StepSpec{Kind: dist.StepDecreasing, Beta: p.Beta, M: n, C: paperC}
		c.sens = dp.SensitivityShardedConvexDecreasing(p.L, p.Beta, o.Passes, n, o.Batch, paperC, workers)
	case o.Step == StepSqrt:
		c.step = dist.StepSpec{Kind: dist.StepSqrt, Beta: p.Beta, M: n, C: paperC}
		c.sens = dp.SensitivityShardedConvexSqrt(p.L, p.Beta, o.Passes, n, o.Batch, paperC, workers)
	default:
		return calibration{}, fmt.Errorf("core: unknown StepKind %v", o.Step)
	}
	if o.GradPerturb != nil {
		c.sens = 2 * o.GradPerturb.Clip
	}
	return c, nil
}

// train runs one calibrated job on the in-process engine: the engine
// is a black box (no GradNoise hook) and only its returned model is
// perturbed — except under gradient perturbation, which replaces the
// engine's batching and noises every step instead.
func train(s sgd.Samples, f loss.Function, o options) (*Result, error) {
	c, err := calibrate(o, f, s.Len())
	if err != nil {
		return nil, err
	}
	step, err := c.step.Build()
	if err != nil {
		return nil, err
	}
	if c.GradPerturb != nil {
		return gradPerturb(s, f, c, step)
	}
	if err := c.reserveBudget(f); err != nil {
		return nil, err
	}
	res, err := engine.Run(s, engine.Config{
		Strategy: c.Strategy,
		Workers:  c.Workers,
		SGD: sgd.Config{
			Loss:          f,
			Step:          step,
			Passes:        c.Passes,
			Batch:         c.Batch,
			Radius:        c.Radius,
			Average:       c.Average,
			AverageTail:   c.AverageTail,
			FreshPerm:     c.FreshPerm,
			KernelWorkers: c.KernelWorkers,
			Rand:          c.Rand,
			Tol:           c.Tol,
			Ctx:           c.Ctx,
			Progress:      c.Progress,
			W0:            c.W0,
		},
	})
	if err != nil {
		return nil, err
	}
	return perturb(&res.Result, c.options, c.sens)
}

// perturb applies the output perturbation step (lines 3–5 of
// Algorithms 1–2) to the black-box SGD result.
func perturb(res *sgd.Result, o options, sens float64) (*Result, error) {
	model := res.Model()
	private, err := o.Budget.Perturb(o.Rand, model, sens)
	if err != nil {
		return nil, err
	}
	var noise float64
	for i := range model {
		d := private[i] - model[i]
		noise += d * d
	}
	return &Result{
		W:           private,
		NonPrivate:  model,
		Sensitivity: sens,
		NoiseNorm:   math.Sqrt(noise),
		Updates:     res.Updates,
		Passes:      res.Passes,
	}, nil
}
