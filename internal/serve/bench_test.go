package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"boltondp/internal/data"
	"boltondp/internal/eval"
)

// kddWorkload builds the serving benchmark fixture: a live linear
// model over the KDDSimSparse one-hot encoding (d = 122, ~12 nnz per
// row) and n test rows in sparse wire form.
func kddWorkload(tb testing.TB, n int) (http.Handler, []Row) {
	tb.Helper()
	return kddWorkloadCfg(tb, n, Config{Workers: 4})
}

// kddWorkloadCfg is kddWorkload with an explicit server config (the
// metrics-overhead gate builds baseline and instrumented servers over
// the same fixture).
func kddWorkloadCfg(tb testing.TB, n int, cfg Config) (http.Handler, []Row) {
	tb.Helper()
	r := rand.New(rand.NewSource(7))
	_, test := data.KDDSimSparse(r, 0.01)
	w := make([]float64, test.Dim())
	for i := range w {
		w[i] = r.NormFloat64()
	}
	reg, err := NewRegistry("")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := reg.Publish("kdd", &eval.Linear{W: w}, nil); err != nil {
		tb.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		sp, _ := test.AtSparse(i % test.Len())
		rows[i] = Row{Idx: append([]int(nil), sp.Idx...), Val: append([]float64(nil), sp.Val...)}
	}
	return New(reg, cfg).Handler(), rows
}

// post sends one request over the real HTTP stack and fails on a
// non-200 status.
func post(tb testing.TB, client *http.Client, url string, body []byte) {
	tb.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d", resp.StatusCode)
	}
}

func encodeSingles(tb testing.TB, rows []Row) [][]byte {
	tb.Helper()
	out := make([][]byte, len(rows))
	for i := range rows {
		b, err := json.Marshal(predictRequest{Row: rows[i]})
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func encodeBatches(tb testing.TB, rows []Row, batch int) [][]byte {
	tb.Helper()
	var out [][]byte
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		b, err := json.Marshal(struct {
			Rows []Row `json:"rows"`
		}{rows[lo:hi]})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// encodeCSRBatches packs row chunks into the columnar batch form.
func encodeCSRBatches(tb testing.TB, rows []Row, batch int) [][]byte {
	tb.Helper()
	type csrReq struct {
		Indptr []int     `json:"indptr"`
		Idx    []int     `json:"idx"`
		Val    []float64 `json:"val"`
	}
	var out [][]byte
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		indptr, idx, val, err := PackCSR(rows[lo:hi])
		if err != nil {
			tb.Fatal(err)
		}
		b, err := json.Marshal(csrReq{Indptr: indptr, Idx: idx, Val: val})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// BenchmarkServePredict measures single-row /predict over the wire:
// every row pays a full HTTP round trip plus per-request JSON framing.
func BenchmarkServePredict(b *testing.B) {
	h, rows := kddWorkload(b, 256)
	srv := httptest.NewServer(h)
	defer srv.Close()
	bodies := encodeSingles(b, rows)
	url := srv.URL + "/predict"
	post(b, srv.Client(), url, bodies[0]) // warm the connection
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, srv.Client(), url, bodies[i%len(bodies)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServeBatchSparse measures /predict/batch in the columnar
// sparse form on the same workload: one request scores batchRows rows
// through eval.SparseClassifier at O(rows·classes·nnz), with the HTTP
// round trip, JSON framing and per-row object decoding all amortized
// into three array decodes. Per-row throughput must sustain ≥ 5× the
// single-row path (pinned by TestServeBatchAmortization).
func BenchmarkServeBatchSparse(b *testing.B) {
	const batchRows = 256
	h, rows := kddWorkload(b, batchRows)
	srv := httptest.NewServer(h)
	defer srv.Close()
	bodies := encodeCSRBatches(b, rows, batchRows)
	url := srv.URL + "/predict/batch"
	post(b, srv.Client(), url, bodies[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, srv.Client(), url, bodies[i%len(bodies)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batchRows/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServeBatchRows measures the row-object batch form — the
// ergonomic encoding. It amortizes the HTTP round trip but still pays
// a JSON object decode per row, which is why the columnar form above
// is the throughput path.
func BenchmarkServeBatchRows(b *testing.B) {
	const batchRows = 256
	h, rows := kddWorkload(b, batchRows)
	srv := httptest.NewServer(h)
	defer srv.Close()
	bodies := encodeBatches(b, rows, batchRows)
	url := srv.URL + "/predict/batch"
	post(b, srv.Client(), url, bodies[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, srv.Client(), url, bodies[i%len(bodies)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batchRows/b.Elapsed().Seconds(), "rows/s")
}

// TestServeBatchAmortization pins the acceptance bar: on the
// KDDSimSparse workload, columnar batch scoring must sustain at least
// 5× the per-row throughput of single-row /predict (relaxed under
// -race, whose instrumentation inflates decode cost relative to the
// fixed network overhead batching amortizes away).
func TestServeBatchAmortization(t *testing.T) {
	const (
		n     = 512
		batch = 256
		pairs = 21
	)
	h, rows := kddWorkload(t, n)
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()

	singles := encodeSingles(t, rows)
	batches := encodeCSRBatches(t, rows, batch)
	post(t, client, srv.URL+"/predict", singles[0])
	post(t, client, srv.URL+"/predict/batch", batches[0])

	// Each pair posts the same 256 rows once as one columnar batch and
	// once as 256 single-row requests, so the pair's time ratio is the
	// per-row amortization; the median over interleaved pairs (see
	// medianPairRatio) keeps load from other processes out of it.
	calls := 0
	pairRows := func() int { // both halves of a pair use the same rows
		i := calls / 2 % len(batches)
		calls++
		return i
	}
	batchRun := func() time.Duration {
		body := batches[pairRows()]
		start := time.Now()
		post(t, client, srv.URL+"/predict/batch", body)
		return time.Since(start)
	}
	singleRun := func() time.Duration {
		lo := pairRows() * batch
		start := time.Now()
		for _, body := range singles[lo : lo+batch] {
			post(t, client, srv.URL+"/predict", body)
		}
		return time.Since(start)
	}
	want := 5.0
	if raceEnabled {
		want = 1.5
	}
	ratio, q1, q3 := medianPairRatio(pairs, batchRun, singleRun)
	t.Logf("single/batch per-row time: median %.1fx over %d pairs (quartiles %.1f–%.1f), want ≥ %.1fx", ratio, pairs, q1, q3, want)
	if ratio < want {
		t.Errorf("batch amortization %.2fx below %.1fx", ratio, want)
	}
}
