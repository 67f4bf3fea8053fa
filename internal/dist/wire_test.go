package dist

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// TestVecRoundTrip: every float64 bit pattern that can appear in a
// model — negative zero, subnormals, extremes — must survive the wire
// exactly.
func TestVecRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{0.5, -1.25, 3.5},
		{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Pi},
	}
	r := rand.New(rand.NewSource(1))
	big := make([]float64, 1000)
	for i := range big {
		big[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	cases = append(cases, big)
	for _, w := range cases {
		got, err := EncodeVec(w).Decode()
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if len(got) != len(w) {
			t.Fatalf("len %d != %d", len(got), len(w))
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("w[%d]: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(w[i]))
			}
		}
	}
}

// TestVecFailClosed: any inconsistency between the three Vec fields is
// an error, never a silently wrong vector.
func TestVecFailClosed(t *testing.T) {
	v := EncodeVec([]float64{1, 2, 3})
	cases := map[string]Vec{
		"bad base64":   {N: v.N, B64: "!!!not base64!!!", CRC: v.CRC},
		"short count":  {N: 2, B64: v.B64, CRC: v.CRC},
		"long count":   {N: 4, B64: v.B64, CRC: v.CRC},
		"bad checksum": {N: v.N, B64: v.B64, CRC: v.CRC ^ 1},
	}
	for name, bad := range cases {
		if _, err := bad.Decode(); err == nil {
			t.Errorf("%s: Decode accepted a corrupt vector", name)
		}
	}
}

// TestInlinePayloadFailClosed: the CSR invariants of the store format
// are enforced on decode — corrupt geometry never reaches a kernel.
func TestInlinePayloadFailClosed(t *testing.T) {
	good := func() *InlinePayload {
		src := NewInlineSource(&sgd.SliceSamples{
			X: [][]float64{{1, 0, 2}, {0, 3, 0}},
			Y: []float64{1, -1},
		})
		m, err := src.manifest(0, 0, 2)
		if err != nil {
			t.Fatalf("manifest: %v", err)
		}
		return m.Inline
	}

	if _, _, _, _, err := good().decode(); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}

	mutations := map[string]func(*InlinePayload){
		"bad crc":       func(p *InlinePayload) { p.CRC ^= 1 },
		"short payload": func(p *InlinePayload) { p.Payload = p.Payload[:len(p.Payload)-8] },
		"wrong rows":    func(p *InlinePayload) { p.Rows = 3 },
		"wrong nnz":     func(p *InlinePayload) { p.NNZ = 5 },
		"zero dim":      func(p *InlinePayload) { p.Dim = 0 },
		"column beyond": func(p *InlinePayload) { p.Dim = 2 }, // row 0 has column 2
	}
	for name, mutate := range mutations {
		p := good()
		mutate(p)
		if _, _, _, _, err := p.decode(); err == nil {
			t.Errorf("%s: decode accepted a corrupt payload", name)
		}
	}
	// Malformed base64 fails at the wire decode, before any payload
	// check runs.
	var p InlinePayload
	if err := json.Unmarshal([]byte(`{"rows":2,"nnz":3,"dim":3,"b64":"***","crc":0}`), &p); err == nil {
		t.Error("bad base64: wire decode accepted it")
	}
}

// TestInlineSourceTier: the worker-side reconstruction must present
// exactly the tier the coordinator-side source presented — a dense
// source must NOT come back sparse (it would switch kernels and break
// bit-parity with the single-process run).
func TestInlineSourceTier(t *testing.T) {
	dense := &sgd.SliceSamples{X: [][]float64{{1, 0}, {0, 2}}, Y: []float64{1, -1}}
	m, err := NewInlineSource(dense).manifest(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Inline.Sparse {
		t.Fatal("dense source produced a sparse-tier payload")
	}
	s, _, _, _, err := openShard(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(sgd.SparseSamples); ok {
		t.Fatal("dense-tier payload reconstructed with an AtSparse method — kernel tier would flip")
	}
	x, y := s.At(1)
	if x[0] != 0 || x[1] != 2 || y != -1 {
		t.Fatalf("row 1 = (%v, %v), want ([0 2], -1)", x, y)
	}
}

// TestLossSpecRoundTrip: spec → Build must reproduce the exact struct
// fields (no constructor re-defaulting of R on the worker side).
func TestLossSpecRoundTrip(t *testing.T) {
	fns := []loss.Function{
		loss.NewLogistic(1e-3, 0),   // R defaults to 1/λ
		loss.NewLogistic(0, 0),      // unregularized
		loss.NewHuber(0.1, 1e-4, 0), // paper's Huber SVM
		loss.NewLeastSquares(1e-2, 0),
	}
	for _, f := range fns {
		spec, err := LossSpecFor(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		back, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", f.Name(), err)
		}
		if got, want := back.Params(), f.Params(); got != want {
			t.Errorf("%s: params %+v != %+v after wire round-trip", f.Name(), got, want)
		}
		if back.Name() != f.Name() {
			t.Errorf("name %q != %q after wire round-trip", back.Name(), f.Name())
		}
	}
	if _, err := LossSpecFor(&customLoss{}); err == nil {
		t.Error("custom loss accepted; it has no wire identity")
	}
}

type customLoss struct{ loss.Logistic }

func (c *customLoss) Name() string { return "custom" }

// TestStepSpecRoundTrip: each schedule kind must rebuild to the same
// η_t sequence (schedules are pure functions of the spec numbers).
func TestStepSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec StepSpec
		want sgd.Schedule
	}{
		{StepSpec{Kind: StepConstant, Eta: 0.05}, sgd.Constant(0.05)},
		{StepSpec{Kind: StepDecreasing, Beta: 0.25, M: 100, C: 0.5}, sgd.DecreasingConvex(0.25, 100, 0.5)},
		{StepSpec{Kind: StepSqrt, Beta: 0.25, M: 100, C: 0.5}, sgd.SqrtConvex(0.25, 100, 0.5)},
		{StepSpec{Kind: StepStronglyConvex, Beta: 0.25, Gamma: 0.001}, sgd.StronglyConvexPaper(0.25, 0.001)},
	}
	for _, tc := range cases {
		got, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		for _, tt := range []int{1, 2, 10, 1000, 100000} {
			if g, w := got.Eta(tt), tc.want.Eta(tt); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: η(%d) = %v, want %v", tc.spec.Kind, tt, g, w)
			}
		}
	}
	for name, bad := range map[string]StepSpec{
		"unknown kind": {Kind: "warp"},
		"bad beta":     {Kind: StepSqrt, Beta: -1, M: 10},
		"bad gamma":    {Kind: StepStronglyConvex, Beta: 1, Gamma: 0},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", name)
		}
	}
}

// TestCheckVersion pins the fail-closed version gate and its error
// wording (operators grep for "version skew").
func TestCheckVersion(t *testing.T) {
	if err := checkVersion(ProtocolVersion); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	err := checkVersion(ProtocolVersion + 1)
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("skew error %q does not name the condition", err)
	}
}
