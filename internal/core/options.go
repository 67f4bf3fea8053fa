package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"boltondp/internal/account"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/sgd"
)

// Option is a functional option for TrainCtx, TrainDistributed and
// ContinualTrainer. Options are applied in order, so later ones win.
// With none but WithBudget (or WithAccountant) and WithRand a run makes
// one pass at batch 1 with the paper-default step sizes.
type Option func(*options)

// options is a private PSGD run's configuration, built by applying the
// Options in order over the zero value.
type options struct {
	// Budget is the privacy guarantee to enforce. Delta = 0 gives pure
	// ε-DP (Theorem 4 / 5); Delta > 0 gives (ε,δ)-DP (Theorem 6 / 7).
	Budget dp.Budget

	// Passes is k, the number of passes over the data (default 1).
	Passes int

	// Batch is the mini-batch size b (default 1).
	Batch int

	// Step selects the convex step-size family. Ignored by the
	// strongly convex algorithm, which always uses min(1/β, 1/(γt)).
	Step StepKind

	// Radius constrains the hypothesis space to the L2 ball of this
	// radius via projected updates (rule (7)). Non-positive means
	// unconstrained.
	Radius float64

	// Average and AverageTail release the uniform iterate average or
	// the average of the last ⌈ln T⌉ iterates instead of the last
	// iterate (Lemma 10: neither hurts sensitivity). Mutually exclusive.
	Average, AverageTail bool

	// FreshPerm resamples the permutation each pass (§3.2.3).
	FreshPerm bool

	// PaperBatchSensitivity calibrates the strongly convex noise to the
	// paper's Δ₂ = 2L/(γmb) (see WithPaperBatchSensitivity).
	PaperBatchSensitivity bool

	// Tol enables the strongly convex "oblivious k" rule of §4.3.
	Tol float64

	// Strategy and Workers select the execution-engine strategy and its
	// shard count (Workers > 1 requires Sharded).
	Strategy engine.Strategy
	Workers  int

	// KernelWorkers is the intra-batch parallelism degree of the SGD
	// kernel; it never changes the result or the calibration.
	KernelWorkers int

	// Rand is the randomness source for the permutation(s), the worker
	// seeds and the noise.
	Rand *rand.Rand

	// Ctx makes the run cancellable (set from TrainCtx's argument).
	Ctx context.Context

	// Accountant, when non-nil, is the budget the run draws from;
	// Accounting names the composition rule it is priced under, and
	// SpendLabel its ledger entry.
	Accountant *account.Accountant
	Accounting string
	SpendLabel string

	// GradPerturb, when non-nil, switches the run to gradient
	// perturbation.
	GradPerturb *gradPerturbSpec

	// Convexity selects the algorithm (ConvexityAuto: from the loss).
	Convexity Convexity

	// W0 is the warm-start point (nil: the origin).
	W0 []float64

	// Progress is the per-epoch trusted-side risk hook.
	Progress func(epoch int, risk float64)
}

// WithBudget sets the privacy budget the release is calibrated to.
// Combined with WithAccountant, the budget is reserved against the
// accountant before training; alone, it is the stand-alone guarantee.
func WithBudget(b dp.Budget) Option {
	return func(o *options) { o.Budget = b }
}

// WithAccountant attaches the privacy-budget accountant the run draws
// from. Without WithBudget the entire remaining budget is drawn; either
// way the spend is recorded in the accountant's ledger and an
// over-budget request fails closed before any training work.
func WithAccountant(a *account.Accountant) Option {
	return func(o *options) { o.Accountant = a }
}

// WithSpendLabel names this run's entry in the accountant's ledger
// (default "train(<loss name>)").
func WithSpendLabel(label string) Option {
	return func(o *options) { o.SpendLabel = label }
}

// WithPasses sets k, the number of passes over the data.
func WithPasses(k int) Option {
	return func(o *options) { o.Passes = k }
}

// WithBatch sets the mini-batch size b. The convex constant-step
// sensitivity improves by the factor b (§3.2.3); for the other
// schedules see the batch-aware forms in internal/dp.
func WithBatch(b int) Option {
	return func(o *options) { o.Batch = b }
}

// WithStep selects the convex step-size family (default StepConstant).
// The schedules are evaluated at m, the smallest shard's size under
// Sharded. The strongly convex algorithm ignores it.
func WithStep(k StepKind) Option {
	return func(o *options) { o.Step = k }
}

// WithRadius constrains the hypothesis space to the L2 ball of radius
// r (the paper's R = 1/λ convention for strongly convex losses).
func WithRadius(r float64) Option {
	return func(o *options) { o.Radius = r }
}

// WithAverage releases the uniform iterate average instead of the last
// iterate (Lemma 10: never hurts sensitivity).
func WithAverage() Option {
	return func(o *options) { o.Average = true }
}

// WithAverageTail releases the average of the last ⌈ln T⌉ iterates —
// the other scheme Lemma 10 covers. Mutually exclusive with
// WithAverage; not supported under Sharded execution.
func WithAverageTail() Option {
	return func(o *options) { o.AverageTail = true }
}

// WithFreshPerm resamples the permutation every pass (§3.2.3). The
// sensitivity analysis is unchanged.
func WithFreshPerm() Option {
	return func(o *options) { o.FreshPerm = true }
}

// WithPaperBatchSensitivity calibrates the strongly convex noise to the
// paper's Δ₂ = 2L/(γmb) (§3.2.3's blanket factor-b claim applied to
// Algorithm 2). Our analysis and brute-force neighboring-dataset runs
// show that bound is violated for b > 1 (see the note on
// dp.SensitivityStronglyConvex), so the default is the sound
// b-independent Δ₂ = 2L/(γm). Use this only to reproduce the paper's
// reported figures; do not rely on it for real privacy.
func WithPaperBatchSensitivity() Option {
	return func(o *options) { o.PaperBatchSensitivity = true }
}

// WithStrategy selects the execution-engine strategy and its worker
// count: Sequential (the default — Algorithms 1–2 verbatim), Sharded
// (workers disjoint shards with per-epoch model averaging; noise is
// calibrated for the averaged model), or Streaming (one in-order pass;
// Passes must be ≤ 1). workers is only meaningful for engine.Sharded;
// pass 0 or 1 otherwise.
func WithStrategy(s engine.Strategy, workers int) Option {
	return func(o *options) { o.Strategy = s; o.Workers = workers }
}

// WithKernelWorkers sets the intra-batch parallelism degree of the SGD
// kernel (0 or 1 = sequential). The parallel kernel is bit-identical
// to the sequential one for every value, so — unlike WithStrategy's
// worker count — it never changes the sensitivity calculus or the
// result; it only changes how many goroutines compute it.
func WithKernelWorkers(w int) Option {
	return func(o *options) { o.KernelWorkers = w }
}

// WithRand sets the randomness source for permutations, worker seeds
// and the privacy noise. Required: the trainers refuse to run without
// an explicit source, so seeds stay reproducible by construction.
func WithRand(r *rand.Rand) Option {
	return func(o *options) { o.Rand = r }
}

// WithProgress installs a per-epoch observability hook: fn is invoked
// after every epoch with the 1-based epoch number and the empirical
// risk of the current (pre-noise, NOT private) iterate. Setting it
// costs one extra pass over the data per epoch. The risk values must
// not be released under the run's budget — they are for logging and
// live monitoring on the trusted side only. Incompatible with
// WithGradPerturb, whose iterates leave the trusted side as they are
// produced: an exact risk value would be an unaccounted release.
func WithProgress(fn func(epoch int, risk float64)) Option {
	return func(o *options) { o.Progress = fn }
}

// WithTol enables the §4.3 "oblivious k" early-stopping rule: run until
// the per-pass risk decrease falls below tol or Passes is reached.
// Strongly convex losses only — the convex algorithm's noise depends on
// k, so it rejects Tol.
func WithTol(tol float64) Option {
	return func(o *options) { o.Tol = tol }
}

// WithAccounting names the composition rule ("simple", "advanced",
// "rdp") the run is priced under. With an accountant attached the two
// must agree; without one it governs the stand-alone calibration (only
// gradient perturbation consults it today).
func WithAccounting(rule string) Option {
	return func(o *options) { o.Accounting = rule }
}

// WithGradPerturb switches training to the gradient-perturbation
// strategy: per-example gradients clipped to clip, Gaussian noise at
// noise multiplier noiseMultiplier (σ̃, in units of the 2·clip
// sensitivity) added to every summed mini-batch gradient, priced as T
// subsampled-Gaussian releases under the accounting rule (default rdp).
// Pass noiseMultiplier = 0 to solve the smallest σ̃ that fits the
// budget. Sequential-only.
func WithGradPerturb(clip, noiseMultiplier float64) Option {
	return func(o *options) {
		o.GradPerturb = &gradPerturbSpec{Clip: clip, NoiseMultiplier: noiseMultiplier}
	}
}

// WithConvexity pins the run to one of the paper's two algorithms. The
// default (ConvexityAuto) derives the algorithm from the loss:
// Algorithm 2 when it is strongly convex, Algorithm 1 otherwise.
// Forcing ConvexityConvex on a strongly convex loss is legal (at
// strictly more noise); forcing ConvexityStronglyConvex on a merely
// convex loss fails. Ignored by gradient perturbation.
func WithConvexity(c Convexity) Option {
	return func(o *options) { o.Convexity = c }
}

// WithWarmStart starts the SGD iterate at w0 (copied) instead of the
// origin. The sensitivity bounds hold for any data-independent common
// start, and a previously released private model is data-independent by
// post-processing — pass only such vectors, never an unreleased
// iterate. A nil or empty w0 means the origin.
func WithWarmStart(w0 []float64) Option {
	return func(o *options) {
		if len(w0) == 0 {
			o.W0 = nil
			return
		}
		o.W0 = append([]float64(nil), w0...)
	}
}

// TrainCtx is the training entry point: it runs the bolt-on private
// PSGD appropriate for the loss (or the one forced with WithConvexity,
// or gradient perturbation with WithGradPerturb), cancellable through
// ctx (checked once per mini-batch update by every execution strategy;
// the run returns ctx.Err() within one epoch slice of cancellation or
// deadline expiry).
//
//	acct, _ := account.New(dp.Budget{Epsilon: 1})
//	res, err := core.TrainCtx(ctx, train, f,
//		core.WithAccountant(acct),
//		core.WithPasses(10), core.WithBatch(50), core.WithRadius(1/lambda),
//		core.WithRand(r))
func TrainCtx(ctx context.Context, s sgd.Samples, f loss.Function, opts ...Option) (*Result, error) {
	return train(s, f, buildOptions(ctx, opts))
}

func buildOptions(ctx context.Context, opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	o.Ctx = ctx
	return o
}

func (o *options) validate() error {
	if err := o.Budget.Validate(); err != nil {
		return err
	}
	if o.Passes < 0 || o.Batch < 0 {
		return fmt.Errorf("core: negative Passes (%d) or Batch (%d)", o.Passes, o.Batch)
	}
	if o.Rand == nil {
		return errors.New("core: a randomness source is required (WithRand)")
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers (%d)", o.Workers)
	}
	if o.KernelWorkers < 0 {
		return fmt.Errorf("core: negative KernelWorkers (%d)", o.KernelWorkers)
	}
	if o.Workers > 1 && o.Strategy != engine.Sharded {
		return fmt.Errorf("core: Workers=%d requires the Sharded strategy, got %v", o.Workers, o.Strategy)
	}
	if o.Convexity < ConvexityAuto || o.Convexity > ConvexityStronglyConvex {
		return fmt.Errorf("core: unknown Convexity %v", o.Convexity)
	}
	if _, err := o.accountingRule(); err != nil {
		return err
	}
	return nil
}

// shardSize returns the dataset size the step schedule and the
// per-shard sensitivity are evaluated at: the smallest shard for
// Sharded runs (the smallest shard has the largest bound), m otherwise.
func (o *options) shardSize(m int) (int, error) {
	if o.Strategy != engine.Sharded || o.Workers <= 1 {
		return m, nil
	}
	return engine.ShardSize(m, o.Workers)
}

// effWorkers is the averaging divisor the sharded sensitivity calculus
// applies (1 for everything but a multi-worker Sharded run).
func (o *options) effWorkers() int {
	if o.Strategy == engine.Sharded && o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// checkStreaming enforces the single-pass constraint of the streaming
// strategy, whose sensitivity is calibrated for exactly one pass.
func (o *options) checkStreaming() error {
	if o.Strategy == engine.Streaming && o.Passes != 1 {
		return fmt.Errorf("core: Streaming execution is single-pass; got Passes=%d (leave Passes at 0 or set it to 1)", o.Passes)
	}
	return nil
}

// fillBudget resolves a zero Budget against the accountant (draw
// everything that remains). Must run before validate, which rejects a
// zero budget. An exhausted accountant fails closed here with
// ErrOverdraw — the same error identity every other over-budget path
// reports — rather than leaking a zero-ε validation error.
func (o *options) fillBudget() error {
	if o.Accountant == nil || o.Budget != (dp.Budget{}) {
		return nil
	}
	rem := o.Accountant.Remaining()
	if rem.Epsilon <= 0 {
		return fmt.Errorf("%w: drawing the remainder of an exhausted accountant (total %v)",
			account.ErrOverdraw, o.Accountant.Total())
	}
	o.Budget = rem
	return nil
}

// reserveBudget debits the run's budget from its accountant, when one
// is attached. Called after all parameter validation and before the
// engine touches a single row, so an over-budget request fails closed
// with no training work done. Reservations are never refunded: the
// ledger records intent to release, the conservative reading of simple
// composition (a failed run after this point still forfeits its spend).
//
// The reservation is typed so the accountant's composition rule can
// price it tightly: a pure release as an ε-DP event (advanced/RDP give
// it a sublinear composed cost), an approximate one as the Gaussian
// mechanism at the multiplier the calibration in dp.Budget.Perturb
// actually uses. Under the simple rule both downgrade to the plain
// (ε, δ) entry this method always recorded — bit-identical ledgers.
func (o *options) reserveBudget(f loss.Function) error {
	if o.Accountant == nil {
		return nil
	}
	label := o.SpendLabel
	if label == "" {
		label = "train(" + f.Name() + ")"
	}
	if o.Budget.Pure() {
		return o.Accountant.ReservePure(label, o.Budget.Epsilon)
	}
	return o.Accountant.ReserveGaussian(label,
		rng.GaussianSigma(1, o.Budget.Epsilon, o.Budget.Delta), 1, o.Budget)
}
