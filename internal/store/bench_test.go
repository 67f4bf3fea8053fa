package store_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"boltondp/internal/data"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// kddBench builds the benchmark workload once per process: the KDD
// sparse simulation (d=122, ~10% density) in memory and as a store
// file, plus the single-pass training configuration both epoch
// measurements share.
type kddBench struct {
	ds   *data.SparseDataset
	path string
	rd   *store.Reader
	rdV2 *store.Reader // the same rows under the v2 delta+varint encoding
}

var kddOnce *kddBench

func kddWorkload(tb testing.TB) *kddBench {
	tb.Helper()
	if kddOnce != nil {
		return kddOnce
	}
	r := rand.New(rand.NewSource(1))
	ds, _ := data.KDDSimSparse(r, 0.1) // 54,342 train rows at scale 0.1
	dir, err := os.MkdirTemp("", "boltstore-bench")
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, "kdd.bolt")
	if err := store.Write(path, ds, store.Options{}); err != nil {
		tb.Fatal(err)
	}
	rd, err := store.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	pathV2 := filepath.Join(dir, "kdd_v2.bolt")
	if err := store.Write(pathV2, ds, store.Options{Version: 2}); err != nil {
		tb.Fatal(err)
	}
	rdV2, err := store.Open(pathV2)
	if err != nil {
		tb.Fatal(err)
	}
	kddOnce = &kddBench{ds: ds, path: path, rd: rd, rdV2: rdV2}
	return kddOnce
}

// epochCfg is the shared single-pass configuration: the streaming
// strategy's natural-order scan, the access pattern out-of-core
// training is built for.
func epochCfg() engine.Config {
	return engine.Config{
		Strategy: engine.Streaming,
		SGD: sgd.Config{
			Loss:   loss.NewLogistic(1e-2, 0),
			Step:   sgd.InvSqrtT(1),
			Passes: 1,
			Batch:  10,
			Radius: 100,
		},
	}
}

func runEpoch(tb testing.TB, s sgd.Samples) time.Duration {
	tb.Helper()
	start := time.Now()
	if _, err := engine.Run(s, epochCfg()); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkStoreEpochKDD measures one single-pass training epoch read
// straight from the store file.
func BenchmarkStoreEpochKDD(b *testing.B) {
	w := kddWorkload(b)
	rows := float64(w.rd.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch(b, w.rd)
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreEpochKDDInMemory is the in-memory baseline of the same
// epoch — the denominator of the ≤15% overhead acceptance gate.
func BenchmarkStoreEpochKDDInMemory(b *testing.B) {
	w := kddWorkload(b)
	rows := float64(w.ds.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch(b, w.ds)
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreChunkScan measures raw chunk decode throughput (read,
// CRC, validate, decode — no training arithmetic).
func BenchmarkStoreChunkScan(b *testing.B) {
	w := kddWorkload(b)
	rows := float64(w.rd.Len())
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < w.rd.Chunks(); c++ {
			_, _, val, _, err := w.rd.ChunkCSR(c)
			if err != nil {
				b.Fatal(err)
			}
			sink += val[0]
		}
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	_ = sink
}

// BenchmarkStoreV2Scan measures raw chunk throughput under the v2
// delta+varint encoding — the decode cost the smaller file buys
// (BenchmarkStoreChunkScan is the v1 baseline).
func BenchmarkStoreV2Scan(b *testing.B) {
	w := kddWorkload(b)
	rows := float64(w.rdV2.Len())
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < w.rdV2.Chunks(); c++ {
			_, _, val, _, err := w.rdV2.ChunkCSR(c)
			if err != nil {
				b.Fatal(err)
			}
			sink += val[0]
		}
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	_ = sink
}

// BenchmarkStoreEpochKDDV2: one single-pass training epoch read from
// the v2-encoded store — the end-to-end cost of the compressed format.
func BenchmarkStoreEpochKDDV2(b *testing.B) {
	w := kddWorkload(b)
	rows := float64(w.rdV2.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runEpoch(b, w.rdV2)
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreWriteKDD measures the one-pass conversion throughput
// (the `dpsgd -cache` path's cost).
func BenchmarkStoreWriteKDD(b *testing.B) {
	w := kddWorkload(b)
	dir := b.TempDir()
	rows := float64(w.ds.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Write(filepath.Join(dir, "w.bolt"), w.ds, store.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestStoreEpochOverhead is the acceptance gate for the out-of-core
// tier: a store-backed single-pass epoch on KDDSimSparse must run
// within 15% of the in-memory epoch. Timing-sensitive, so it is
// skipped under -race and -short (like the sparse kernel's ctx
// overhead gate); CI runs it in the store benchmark smoke step.
func TestStoreEpochOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	w := kddWorkload(t)

	// Warm both paths (page cache, arenas, branch predictors), then
	// estimate the overhead as the median ratio over interleaved pairs
	// of epochs. One epoch is a few milliseconds, short next to the
	// drift of a shared machine's load; 201 pairs keep the median's
	// run-to-run spread at a few tenths of a percent.
	runEpoch(t, w.ds)
	runEpoch(t, w.rd)
	const pairs = 201
	ratio, q1, q3 := medianPairRatio(pairs,
		func() time.Duration { return runEpoch(t, w.ds) },
		func() time.Duration { return runEpoch(t, w.rd) })
	t.Logf("epoch: store-backed/in-memory median %.3f over %d pairs (quartiles %.3f–%.3f)", ratio, pairs, q1, q3)
	if ratio > 1.15 {
		t.Fatalf("store-backed epoch is %.1f%% slower than in-memory, budget is 15%%", (ratio-1)*100)
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
