package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/dp"
	"boltondp/internal/eval"
)

// promLine matches one sample line of the Prometheus text exposition
// format (0.0.4): metric name, optional label set, and a value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// parseMetrics validates the exposition text line by line and returns
// sample line → value. HELP/TYPE comments must precede their metric.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as Prometheus text: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no preceding TYPE declaration", name)
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		out[key] = v
	}
	return out
}

// TestMetricsEndpoint drives traffic through every route and checks
// the scrape: well-formed exposition text, correct counts per route
// and status class, a coherent latency histogram, batch-row and
// model-info series.
func TestMetricsEndpoint(t *testing.T) {
	_, h := testServer(t, Config{})

	for i := 0; i < 3; i++ {
		if w, _ := do(t, h, "POST", "/predict", `{"x":[1,0,0,0]}`); w.Code != http.StatusOK {
			t.Fatalf("predict: %d", w.Code)
		}
	}
	if w, _ := do(t, h, "POST", "/predict", `{"x":[1]}`); w.Code != http.StatusBadRequest {
		t.Fatal("bad predict did not 400")
	}
	if w, _ := do(t, h, "POST", "/predict/batch",
		`{"indptr":[0,1,2],"idx":[0,2],"val":[1,1]}`); w.Code != http.StatusOK {
		t.Fatal("batch failed")
	}

	w, _ := do(t, h, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	m := parseMetrics(t, w.Body.String())

	checks := map[string]float64{
		`dpserve_requests_total{route="predict"}`:                   4,
		`dpserve_errors_total{route="predict",class="4xx"}`:         1,
		`dpserve_errors_total{route="predict",class="5xx"}`:         0,
		`dpserve_requests_total{route="predict_batch"}`:             1,
		`dpserve_batch_rows_total`:                                  2,
		`dpserve_response_encode_errors_total`:                      0,
		`dpserve_model_info{model="lin",tier="float32"}`:            1,
		`dpserve_model_dim{model="lin"}`:                            4,
		`dpserve_request_seconds_count{route="predict"}`:            4,
		`dpserve_request_seconds_bucket{route="predict",le="+Inf"}`: 4,
	}
	for key, want := range checks {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	// Histogram buckets are cumulative: each le bound holds at least as
	// many observations as the one before it.
	prev := -1.0
	for _, ub := range latencyBuckets {
		key := `dpserve_request_seconds_bucket{route="predict",le="` + formatFloat(ub) + `"}`
		v, ok := m[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", key, v, prev)
		}
		prev = v
	}

	// A second scrape counts the first: the metrics route instruments
	// itself.
	w, _ = do(t, h, "GET", "/metrics", "")
	if m2 := parseMetrics(t, w.Body.String()); m2[`dpserve_requests_total{route="metrics"}`] != 1 {
		t.Errorf("metrics route self-count: %v", m2[`dpserve_requests_total{route="metrics"}`])
	}
}

// TestMetricsLedgerGauges: a live model published through an
// accountant exposes its ε/δ spend as gauges.
func TestMetricsLedgerGauges(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	acct := account.MustNew(dp.Budget{Epsilon: 2, Delta: 1e-6})
	if err := acct.Reserve("train(svm)", dp.Budget{Epsilon: 0.5, Delta: 1e-6}); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{}
	if err := acct.StampMeta(meta); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("audited", &eval.Linear{W: []float64{1, -1}}, meta); err != nil {
		t.Fatal(err)
	}
	w, _ := do(t, New(reg, Config{}).Handler(), "GET", "/metrics", "")
	m := parseMetrics(t, w.Body.String())
	for key, want := range map[string]float64{
		`dpserve_dp_epsilon_spent{model="audited"}`: 0.5,
		`dpserve_dp_delta_spent{model="audited"}`:   1e-6,
		`dpserve_dp_epsilon_total{model="audited"}`: 2,
		`dpserve_dp_delta_total{model="audited"}`:   1e-6,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
}

// TestMetricsDisabled: DisableMetrics removes the route entirely.
func TestMetricsDisabled(t *testing.T) {
	_, h := testServer(t, Config{DisableMetrics: true})
	if w, _ := do(t, h, "GET", "/metrics", ""); w.Code != http.StatusNotFound {
		t.Errorf("/metrics with metrics disabled: %d, want 404", w.Code)
	}
	// Scoring still works without instrumentation.
	if w, _ := do(t, h, "POST", "/predict", `{"x":[1,0,0,0]}`); w.Code != http.StatusOK {
		t.Errorf("predict with metrics disabled: %d", w.Code)
	}
}

// failAfterHeader is a ResponseWriter whose body writes fail — the
// mid-body encode failure writeJSON must surface (satellite: the error
// was silently discarded before).
type failAfterHeader struct {
	httptest.ResponseRecorder
}

func (w *failAfterHeader) Write([]byte) (int, error) {
	return 0, errors.New("client went away")
}

// TestWriteJSONEncodeErrorSurfaced: a response that fails mid-body
// increments the encode-error counter and logs, instead of vanishing.
func TestWriteJSONEncodeErrorSurfaced(t *testing.T) {
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	s := New(reg, Config{Logf: func(format string, args ...any) {
		logged = append(logged, format)
	}})
	s.writeJSON(&failAfterHeader{}, http.StatusOK, map[string]string{"k": "v"})
	if got := s.metrics.encodeErrors.Load(); got != 1 {
		t.Errorf("encode-error counter %d, want 1", got)
	}
	if len(logged) != 1 {
		t.Errorf("encode error logged %d times, want 1", len(logged))
	}
}

// TestServeMetricsOverhead is the CI gate on the cost of being
// observable: on the columnar batch workload, the instrumented server
// must stay within 2% of the metrics-disabled baseline. The estimate
// is the median ratio over interleaved in-process pairs (see
// medianPairRatio), so scheduler noise hits both configurations alike.
// The race detector's instrumentation distorts the ratio
// unpredictably, so the gate is skipped there.
func TestServeMetricsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead gate needs steady timing")
	}
	if raceEnabled {
		t.Skip("timing gate is meaningless under -race")
	}
	// One request per timed run keeps each pair short next to the
	// drift of a shared machine's load, and a collection before each run
	// keeps the GC cycles a ~465 KB request triggers out of the pairs
	// (instrumentation adds one 74-byte allocation per request, so no
	// cost of its own is hidden). On a loaded 2-CPU box the per-pair
	// quartiles are then ≈ 0.93–1.07, and 601 pairs put the median's
	// run-to-run spread near ±0.5%, well inside the 2% gate.
	const (
		batchRows = 256
		pairs     = 601
	)
	handlers := map[string]http.Handler{}
	var rows []Row
	for _, name := range []string{"off", "on"} {
		h, r := kddWorkloadCfg(t, batchRows, Config{Workers: 4, DisableMetrics: name == "off"})
		handlers[name] = h
		rows = r
	}
	bodies := encodeCSRBatches(t, rows, batchRows)

	run := func(h http.Handler) func() time.Duration {
		return func() time.Duration {
			runtime.GC()
			req := httptest.NewRequest("POST", "/predict/batch", bytes.NewReader(bodies[0]))
			w := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(w, req)
			d := time.Since(start)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			return d
		}
	}

	// Warm both paths, then estimate the overhead from interleaved pairs.
	run(handlers["off"])()
	run(handlers["on"])()
	ratio, q1, q3 := medianPairRatio(pairs, run(handlers["off"]), run(handlers["on"]))
	t.Logf("batch path: instrumented/baseline median %.4f over %d pairs (quartiles %.4f–%.4f), overhead %.2f%%",
		ratio, pairs, q1, q3, (ratio-1)*100)
	if ratio > 1.02 {
		t.Errorf("metrics overhead %.2f%% exceeds the 2%% budget", (ratio-1)*100)
	}
}

// medianPairRatio times base and variant in n adjacent pairs, swapping
// which runs first on every other pair, and returns the median of the
// per-pair ratios variant/base with their quartiles. Load from other
// processes drifts slowly next to one short pair, so it scales both
// halves of a pair alike and cancels in the ratio; a burst that does
// not cancel disturbs only the few pairs it overlaps, which the median
// ignores.
func medianPairRatio(n int, base, variant func() time.Duration) (median, q1, q3 float64) {
	ratios := make([]float64, n)
	for i := range ratios {
		var b, v time.Duration
		if i%2 == 0 {
			b, v = base(), variant()
		} else {
			v, b = variant(), base()
		}
		ratios[i] = float64(v) / float64(b)
	}
	sort.Float64s(ratios)
	return ratios[n/2], ratios[n/4], ratios[3*n/4]
}
