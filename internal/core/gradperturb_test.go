package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/account/compose"
	"boltondp/internal/dp"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// TestSimpleRuleParityWall: attaching an accountant — under any rule —
// must never change the trained model. The output-perturbation path
// with a simple-rule accountant is the exact pre-refactor configuration
// (typed reservations downgrade to the plain entries Reserve always
// recorded), so rule-less == simple == rdp bit-identity pins that the
// accounting subsystem stayed out of the training arithmetic.
func TestSimpleRuleParityWall(t *testing.T) {
	s := separable(rand.New(rand.NewSource(21)), 600, 6)
	f := loss.NewLogistic(1e-2, 0)
	total := dp.Budget{Epsilon: 2, Delta: 1e-5}
	budget := dp.Budget{Epsilon: 1, Delta: 1e-6}

	run := func(acct *account.Accountant) *Result {
		res, err := train(s, f, options{
			Budget:     budget,
			Passes:     2,
			Batch:      25,
			Radius:     100,
			Rand:       rand.New(rand.NewSource(77)),
			Accountant: acct,
			SpendLabel: "wall",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(nil)
	for _, rule := range compose.Rules() {
		acct, err := account.NewWithRule(rule, total)
		if err != nil {
			t.Fatal(err)
		}
		got := run(acct)
		for i := range base.W {
			if base.W[i] != got.W[i] {
				t.Fatalf("rule %s: w[%d] = %v, rule-less run has %v", rule, i, got.W[i], base.W[i])
			}
		}
	}

	// And the simple-rule ledger is Same as one written by the plain
	// pre-refactor Reserve call — the typed Gaussian reservation
	// downgraded to an identical entry.
	typed, _ := account.NewWithRule(compose.RuleSimple, total)
	run(typed)
	plain := account.MustNew(total)
	if err := plain.Reserve("wall", budget); err != nil {
		t.Fatal(err)
	}
	if !typed.Ledger().Same(plain.Ledger()) {
		t.Fatalf("simple-rule training ledger diverged from plain Reserve:\n%+v\nvs\n%+v",
			typed.Ledger(), plain.Ledger())
	}

	// A pure budget takes the ReservePure path; same bit-compat.
	pureTyped, _ := account.NewWithRule(compose.RuleSimple, dp.Budget{Epsilon: 2})
	res, err := train(s, f, options{
		Budget: dp.Budget{Epsilon: 1}, Passes: 1, Batch: 25, Radius: 100,
		Rand: rand.New(rand.NewSource(78)), Accountant: pureTyped, SpendLabel: "pure",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.W) == 0 {
		t.Fatal("pure-budget run produced no model")
	}
	purePlain := account.MustNew(dp.Budget{Epsilon: 2})
	if err := purePlain.Reserve("pure", dp.Budget{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if !pureTyped.Ledger().Same(purePlain.Ledger()) {
		t.Fatal("pure-budget ledger diverged from plain Reserve")
	}
}

// TestGradPerturbEndToEnd: the gradient-perturbation strategy trains a
// usable model under an rdp accountant, records an sgm ledger entry,
// and reports the right result shape (no non-private model to leak).
func TestGradPerturbEndToEnd(t *testing.T) {
	s := separable(rand.New(rand.NewSource(31)), 1000, 5)
	f := loss.NewLogistic(1e-2, 0)
	acct, err := account.NewWithRule(compose.RuleRDP, dp.Budget{Epsilon: 4, Delta: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainCtx(context.Background(), s, f,
		WithBudget(dp.Budget{Epsilon: 2, Delta: 1e-6}),
		WithAccountant(acct),
		WithGradPerturb(1, 0), // solve σ̃ from the budget
		WithPasses(2), WithBatch(50), WithRadius(100),
		WithRand(rand.New(rand.NewSource(32))))
	if err != nil {
		t.Fatal(err)
	}
	if res.NonPrivate != nil {
		t.Error("gradperturb leaked a NonPrivate model; every iterate is already private")
	}
	if res.Sensitivity != 2 {
		t.Errorf("Sensitivity = %v, want 2·Clip = 2", res.Sensitivity)
	}
	if res.Updates != 2*(1000/50) {
		t.Errorf("Updates = %d, want %d", res.Updates, 2*(1000/50))
	}
	risk0 := sgd.EmpiricalRisk(s, f, make([]float64, 5))
	if risk := sgd.EmpiricalRisk(s, f, res.W); risk >= risk0 {
		t.Errorf("gradperturb model risk %v not better than zero model %v", risk, risk0)
	}

	l := acct.Ledger()
	if l.Rule != compose.RuleRDP {
		t.Fatalf("ledger rule = %q", l.Rule)
	}
	if len(l.Entries) != 1 {
		t.Fatalf("ledger entries: %+v", l.Entries)
	}
	e := l.Entries[0]
	if compose.Kind(e.Kind) != compose.KindSGM || e.Sigma <= 0 || e.Q != 50.0/1000 || e.Steps != 40 {
		t.Fatalf("sgm entry detail wrong: %+v", e)
	}
	if e.Label != "gradperturb("+f.Name()+")" {
		t.Errorf("label = %q", e.Label)
	}
	// Under rdp the composed spend is far below the entry's standalone
	// linear price — the point of the strategy.
	if sp := acct.Spent(); sp.Epsilon > e.Epsilon {
		t.Errorf("composed spend %v exceeds linear entry price %v", sp.Epsilon, e.Epsilon)
	}
	// The rdp ledger round-trips through model metadata.
	meta := map[string]string{}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	back, ok, err := account.LedgerFromMeta(meta)
	if err != nil || !ok {
		t.Fatalf("LedgerFromMeta: ok=%v err=%v", ok, err)
	}
	if !l.Same(back) {
		t.Fatal("rdp ledger did not round-trip through metadata")
	}
}

// TestGradPerturbDeterministic: fixed seeds give a bit-identical model.
func TestGradPerturbDeterministic(t *testing.T) {
	s := separable(rand.New(rand.NewSource(41)), 400, 4)
	f := loss.NewLogistic(1e-2, 0)
	run := func() []float64 {
		res, err := train(s, f, options{
			Budget:      dp.Budget{Epsilon: 4, Delta: 1e-6},
			GradPerturb: &gradPerturbSpec{Clip: 0.5, NoiseMultiplier: 1},
			Passes:      2, Batch: 20, Radius: 100,
			Rand: rand.New(rand.NewSource(42)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("w[%d]: %v vs %v across identical runs", i, a[i], b[i])
		}
	}
}

// TestGradPerturbOverdrawBeforeWork: an over-budget gradperturb run
// fails closed with account.ErrOverdraw and ZERO row accesses — the
// reservation happens before the engine sees the data.
func TestGradPerturbOverdrawBeforeWork(t *testing.T) {
	base := separable(rand.New(rand.NewSource(51)), 500, 4)
	src := &cancelAfterSamples{s: base, n: -1, cancel: func() {}}
	acct, err := account.NewWithRule(compose.RuleRDP, dp.Budget{Epsilon: 0.5, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	_, err = train(src, loss.NewLogistic(1e-2, 0), options{
		Budget: dp.Budget{Epsilon: 0.5, Delta: 1e-7},
		// σ̃ = 0.05 over 25 steps prices enormously above ε = 0.5.
		GradPerturb: &gradPerturbSpec{Clip: 1, NoiseMultiplier: 0.05},
		Passes:      1, Batch: 20, Radius: 100,
		Rand:       rand.New(rand.NewSource(52)),
		Accountant: acct,
	})
	if !errors.Is(err, account.ErrOverdraw) {
		t.Fatalf("err = %v, want account.ErrOverdraw", err)
	}
	if got := src.count.Load(); got != 0 {
		t.Errorf("over-budget gradperturb run still read %d rows", got)
	}
	if len(acct.Ledger().Entries) != 0 {
		t.Error("refused reservation left a ledger entry")
	}

	// Stand-alone (no accountant) the same overpriced run is refused by
	// the trial pricing, still before any row access.
	_, err = train(src, loss.NewLogistic(1e-2, 0), options{
		Budget:      dp.Budget{Epsilon: 0.5, Delta: 1e-6},
		GradPerturb: &gradPerturbSpec{Clip: 1, NoiseMultiplier: 0.05},
		Passes:      1, Batch: 20, Radius: 100,
		Rand: rand.New(rand.NewSource(53)),
	})
	if err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("stand-alone overpriced run: err = %v", err)
	}
	if got := src.count.Load(); got != 0 {
		t.Errorf("stand-alone over-budget run still read %d rows", got)
	}
}

// TestGradPerturbRuleDefaultsAndMismatch: the strategy defaults to rdp
// accounting — a budget that cannot fit T steps under simple accounting
// trains fine under the default — and a stated Accounting rule must
// agree with the accountant's.
func TestGradPerturbRuleDefaultsAndMismatch(t *testing.T) {
	s := separable(rand.New(rand.NewSource(61)), 800, 4)
	f := loss.NewLogistic(1e-2, 0)
	budget := dp.Budget{Epsilon: 2.5, Delta: 1e-6}
	opt := func() options {
		return options{
			Budget:      budget,
			GradPerturb: &gradPerturbSpec{Clip: 1, NoiseMultiplier: 1.2},
			Passes:      2, Batch: 25, Radius: 100,
			Rand: rand.New(rand.NewSource(62)),
		}
	}

	// 64 steps at σ̃ = 1.2 price over ε = 2.5 under simple composition...
	o := opt()
	o.Accounting = compose.RuleSimple
	if _, err := train(s, f, o); err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("simple-rule pricing should refuse this run, got err = %v", err)
	}
	// ...and comfortably fit under the rdp default.
	if _, err := train(s, f, opt()); err != nil {
		t.Fatalf("rdp-default run failed: %v", err)
	}

	// Rule mismatch with the accountant is a configuration error.
	acct, _ := account.NewWithRule(compose.RuleAdvanced, dp.Budget{Epsilon: 4, Delta: 1e-5})
	o = opt()
	o.Accountant = acct
	o.Accounting = compose.RuleRDP
	if _, err := train(s, f, o); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("rule mismatch: err = %v", err)
	}
	// An unknown rule is rejected too.
	o = opt()
	o.Accounting = "zcdp"
	if _, err := train(s, f, o); err == nil {
		t.Fatal("unknown accounting rule accepted")
	}
}

// TestGradPerturbValidationCore: Sequential-only, no Tol, δ > 0, and a
// usable noise multiplier.
func TestGradPerturbValidationCore(t *testing.T) {
	s := separable(rand.New(rand.NewSource(71)), 200, 4)
	f := loss.NewLogistic(1e-2, 0)
	base := func() options {
		return options{
			Budget:      dp.Budget{Epsilon: 6, Delta: 1e-6},
			GradPerturb: &gradPerturbSpec{Clip: 1, NoiseMultiplier: 1},
			Passes:      1, Batch: 20, Radius: 100,
			Rand: rand.New(rand.NewSource(72)),
		}
	}
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"sharded", func(o *options) { o.Strategy = 1; o.Workers = 2 }, "Sequential-only"},
		{"tol", func(o *options) { o.Tol = 1e-3 }, "Tol"},
		{"progress", func(o *options) { o.Progress = func(int, float64) {} }, "Progress"},
		{"freshperm", func(o *options) { o.FreshPerm = true }, "FreshPerm"},
		{"pure budget", func(o *options) { o.Budget = dp.Budget{Epsilon: 2} }, "δ > 0"},
		{"negative multiplier", func(o *options) { o.GradPerturb.NoiseMultiplier = -1 }, "NoiseMultiplier"},
	}
	for _, tc := range cases {
		o := base()
		tc.mut(&o)
		_, err := train(s, f, o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// The happy path actually runs (guards the cases above are real).
	if _, err := train(s, f, base()); err != nil {
		t.Fatalf("base gradperturb config failed: %v", err)
	}
}

// TestGradPerturbSolvedSigmaTightens: a larger budget admits less noise
// (smaller solved σ̃), observable through the ledger's recorded σ̃.
func TestGradPerturbSolvedSigmaTightens(t *testing.T) {
	s := separable(rand.New(rand.NewSource(81)), 500, 4)
	f := loss.NewLogistic(1e-2, 0)
	sigmaFor := func(eps float64) float64 {
		acct, err := account.NewWithRule(compose.RuleRDP, dp.Budget{Epsilon: eps, Delta: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		_, err = train(s, f, options{
			Budget:      dp.Budget{Epsilon: eps, Delta: 1e-6},
			GradPerturb: &gradPerturbSpec{Clip: 1},
			Passes:      1, Batch: 25, Radius: 100,
			Rand:       rand.New(rand.NewSource(82)),
			Accountant: acct,
		})
		if err != nil {
			t.Fatal(err)
		}
		return acct.Ledger().Entries[0].Sigma
	}
	loose, tight := sigmaFor(4), sigmaFor(0.5)
	if !(loose < tight) {
		t.Fatalf("σ̃(ε=4) = %v should be below σ̃(ε=0.5) = %v", loose, tight)
	}
	got := vec.Norm([]float64{loose, tight})
	if got <= 0 {
		t.Fatal("degenerate solved multipliers")
	}
}
