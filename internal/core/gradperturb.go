package core

import (
	"errors"
	"fmt"

	"boltondp/internal/account/compose"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// gradPerturbSpec configures the gradient-perturbation training
// strategy (DP-SGD, set with WithGradPerturb): per-example l2 clipping
// to Clip plus Gaussian noise on every summed mini-batch gradient, with
// the privacy cost accounted per step through the subsampled-Gaussian
// machinery of internal/account/compose instead of a single
// output-perturbation release. It is the other half of the private-ERM
// design space next to the paper's bolt-on output perturbation: noisier
// per step but loss-agnostic (no Lipschitz/smoothness constants enter
// the calibration — the clip bounds sensitivity by force) and far
// cheaper under Rényi accounting.
type gradPerturbSpec struct {
	// Clip is the per-example gradient clipping norm C > 0. The l2
	// sensitivity of each clipped batch sum under replace-one adjacency
	// is 2C, which is what the noise is calibrated against.
	Clip float64

	// NoiseMultiplier is σ̃, the per-step Gaussian noise scale in units
	// of the sensitivity (the per-coordinate noise stddev on a summed
	// batch gradient is 2·Clip·σ̃). Zero means "solve it from the
	// budget": the smallest σ̃ whose T steps price within the budget
	// under the accounting rule, found by bisection
	// (compose.SolveSGMSigma).
	NoiseMultiplier float64
}

// checkGradPerturb rejects what gradient perturbation cannot honour.
// The strategy is Sequential-only (the subsampled-Gaussian accounting
// assumes one update stream), and every data-dependent side channel is
// rejected: Tol would invalidate the calibrated T, and the Progress
// hook would release the exact per-pass empirical risk outside the
// accounted budget. FreshPerm does not apply — there is no permutation
// to resample.
func (o *options) checkGradPerturb() error {
	switch {
	case o.Strategy != engine.Sequential:
		return fmt.Errorf("core: gradient perturbation is Sequential-only (per-step accounting assumes one update stream), got %v", o.Strategy)
	case o.Tol > 0:
		return errors.New("core: gradient perturbation fixes the step count at calibration time; Tol-based early stopping is not allowed")
	case o.Progress != nil:
		return errors.New("core: gradient perturbation rejects the Progress hook — the per-pass empirical risk is an exact, unaccounted data-dependent release (only the noisy iterates are covered by the budget)")
	case o.FreshPerm:
		return errors.New("core: gradient perturbation draws an independent Poisson batch every step; FreshPerm does not apply")
	case o.Budget.Delta <= 0:
		return fmt.Errorf("core: gradient perturbation is a Gaussian mechanism and needs δ > 0, got %v", o.Budget)
	case o.GradPerturb.NoiseMultiplier < 0:
		return fmt.Errorf("core: NoiseMultiplier must be >= 0, got %v", o.GradPerturb.NoiseMultiplier)
	}
	return nil
}

// gradPerturb trains the calibrated run with per-step gradient
// perturbation (DP-SGD):
//
//	w_{t+1} = Π_C( w_t − η_t · (Σ_{i∈B_t} clip_C(∇ℓ_i(w_t)) + N(0, (2C·σ̃)²·I)) / (q·m) )
//
// for T = Passes·⌊m/b⌋ steps, each over an INDEPENDENT Poisson
// subsample B_t that includes every example with probability q = b/m
// (sgd.GradPerturb.Poisson) — the sampling scheme the
// subsampled-Gaussian bounds assume. The run is priced as T invocations
// of the subsampled Gaussian mechanism at sampling fraction q under the
// accounting rule (default rdp — the rule this strategy exists for).
// Deterministic permutation batches would visit every example exactly
// once per pass and admit NO amplification by subsampling, so the
// engine's usual batching is replaced, not reused. The spend is
// reserved against the accountant — or, without one, trial-priced
// against the budget — BEFORE any row is touched, so an over-budget run
// fails closed with zero work done.
//
// Unlike output perturbation every iterate is already private (each
// update is a noisy release and the trajectory is post-processing), so
// Result.NonPrivate is nil and Average / AverageTail act on private
// iterates.
func gradPerturb(s sgd.Samples, f loss.Function, c calibration, step sgd.Schedule) (*Result, error) {
	spec := *c.GradPerturb
	m := s.Len()

	// The pricing mirrors the engine's Poisson batching exactly: ⌊m/b⌋
	// updates per pass, each an independent Poisson subsample at
	// inclusion probability q = b/m (expected batch size b).
	updatesPerPass := m / c.Batch
	if updatesPerPass < 1 {
		updatesPerPass = 1
	}
	steps := c.Passes * updatesPerPass
	q := float64(c.Batch) / float64(m)

	rule, err := c.accountingRule()
	if err != nil {
		return nil, err
	}
	sigma := spec.NoiseMultiplier
	if sigma == 0 {
		sigma, err = compose.SolveSGMSigma(rule, q, steps, c.Budget)
		if err != nil {
			return nil, err
		}
	}

	// Fail closed before any row access: reserve the run against the
	// accountant, or — stand-alone — refuse a (σ̃, q, T) whose composed
	// price exceeds the stated budget.
	if c.Accountant != nil {
		label := c.SpendLabel
		if label == "" {
			label = "gradperturb(" + f.Name() + ")"
		}
		if err := c.Accountant.ReserveSubsampledGaussian(label, sigma, q, steps, c.Budget.Delta); err != nil {
			return nil, err
		}
	} else {
		price, err := compose.PriceSGM(rule, sigma, q, steps, c.Budget)
		if err != nil {
			return nil, err
		}
		if price.Epsilon > c.Budget.Epsilon*(1+1e-9) {
			return nil, fmt.Errorf("core: gradperturb run prices at %v under rule %s, over budget %v (raise NoiseMultiplier or the budget)",
				price, rule, c.Budget)
		}
	}

	res, err := engine.Run(s, engine.Config{
		Strategy: engine.Sequential,
		SGD: sgd.Config{
			Loss:        f,
			Step:        step,
			Passes:      c.Passes,
			Batch:       c.Batch,
			Radius:      c.Radius,
			Average:     c.Average,
			AverageTail: c.AverageTail,
			Rand:        c.Rand,
			Ctx:         c.Ctx,
			W0:          c.W0,
			GradPerturb: &sgd.GradPerturb{
				Clip:    spec.Clip,
				Sigma:   2 * spec.Clip * sigma,
				Rand:    c.Rand,
				Poisson: true,
			},
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		W: res.Model(),
		// Every iterate is private; there is no non-private model to
		// withhold and no single output draw to report a norm for.
		NonPrivate:  nil,
		Sensitivity: c.sens,
		NoiseNorm:   0,
		Updates:     res.Updates,
		Passes:      res.Passes,
	}, nil
}

// accountingRule resolves the composition rule a run calibrates and
// reserves under: the WithAccounting rule when set (which must then agree
// with the accountant's rule, if one is attached), else the
// accountant's own rule, else — for gradient perturbation only — rdp,
// the rule the strategy exists for.
func (o *options) accountingRule() (string, error) {
	rule := compose.Normalize(o.Accounting)
	if o.Accounting == "" {
		if o.Accountant != nil {
			return o.Accountant.Rule(), nil
		}
		if o.GradPerturb != nil {
			return compose.RuleRDP, nil
		}
		return rule, nil
	}
	if _, err := compose.New(rule); err != nil {
		return "", err
	}
	if o.Accountant != nil && o.Accountant.Rule() != rule {
		return "", fmt.Errorf("core: accounting rule %q disagrees with the accountant's rule %q — one composition authority per run",
			rule, o.Accountant.Rule())
	}
	return rule, nil
}
