package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/rng"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// ingestKDD is the dynamic setting: writes mixed with reads. Each
// cycle ingests every window file the way dpsgd -ingest does (parse,
// normalize, append a segment, reload), retrains one continual window
// over the union read from the segment directory, publishes the model,
// and compacts the directory.
//
// End-to-end metrics on this workload:
//   - rows_per_s: rows·passes of the continual retrain that reads the
//     union from the segment directory, per second of its wall
//   - accuracy: test accuracy of the retrained, published model
//   - setup_s: generating the rows, writing the LIBSVM window files,
//     training and publishing the initial live model
//
// Reported per layer: store.read_overhead_x (the retrain's wall reading
// from the segment directory ÷ the same retrain from the in-memory CSR
// union, summed over the interleaved pairs), store.ingest_rows_per_s
// and workload.latency_p50_ms (median wall of ingesting one window
// file: parse, normalize, append, reload).
var ingestKDD = &workload{
	name: "ingest-kdd",
	why:  "store write path beside its read path: parse, append and reload LIBSVM windows, continual retrain from the segment dir, publish, compact; sparse kernel",
	loads: []string{"data (LoadLIBSVMSparse)", "store (AppendSegment, Reload, Dir reads, Compact, Verify)",
		"sparse kernel", "engine.Sequential", "core.ContinualTrainer", "account (rdp windows)", "serve.Registry (publish)", "go runtime"},
	bypasses: []string{"dense kernel", "serve HTTP and JSON", "dist", "gradient perturbation"},
	run:      runIngestKDD,
}

const (
	ingestScale   = 0.25 // KDDSimSparse scale: ~123k train rows
	ingestWindows = 8
	ingestPasses  = 4
	ingestBatch   = 50
	ingestLambda  = 1e-3
	kddDim        = 122
)

// ingestAccuracy is the retrained model's test accuracy at defaultSeed.
const ingestAccuracy = 0.9961946401101125

var ingestBudget = dp.Budget{Epsilon: 2, Delta: 1e-6}

type ingestSet struct {
	files []string
	rows  int
	test  *data.SparseDataset
	w0    []float64 // the live model every retrain warm-starts from
	reg   *serve.Registry
}

func runIngestKDD(r *run) error {
	f := loss.NewLogistic(ingestLambda, 0)
	ctx := context.Background()
	set, cleanup, err := setupRepeated(r, func() (ingestSet, func(), error) {
		var train, test *data.SparseDataset
		r.timed("data.gen", -1, func(int) error {
			train, test = data.KDDSimSparse(rand.New(rand.NewSource(r.seed)), ingestScale*r.scale)
			return nil
		})
		in := filepath.Join(r.work, "in")
		if err := os.MkdirAll(in, 0o755); err != nil {
			return ingestSet{}, nil, err
		}
		set := ingestSet{rows: train.Len(), test: test}
		per := train.Len() / ingestWindows
		for k := range ingestWindows {
			hi := (k + 1) * per
			if k == ingestWindows-1 {
				hi = train.Len()
			}
			path := filepath.Join(in, fmt.Sprintf("win-%d.libsvm", k))
			if err := writeLIBSVM(path, train, k*per, hi); err != nil {
				return ingestSet{}, nil, err
			}
			set.files = append(set.files, path)
		}
		// The live model: a private run over the first window,
		// published the way dpsgd -publish does.
		res, err := core.TrainCtx(ctx, engine.RangeView(train, 0, per), f,
			core.WithBudget(ingestBudget), core.WithPasses(1), core.WithBatch(ingestBatch),
			core.WithRadius(1/ingestLambda), core.WithRand(rand.New(rand.NewSource(r.seed))))
		if err != nil {
			return ingestSet{}, nil, err
		}
		regDir := filepath.Join(r.work, "registry")
		if err := os.RemoveAll(regDir); err != nil {
			return ingestSet{}, nil, err
		}
		if set.reg, err = serve.NewRegistry(regDir); err != nil {
			return ingestSet{}, nil, err
		}
		if _, err := set.reg.Publish("kdd", &eval.Linear{W: res.W}, nil); err != nil {
			return ingestSet{}, nil, err
		}
		set.w0 = res.W
		return set, func() {}, nil
	})
	defer cleanup()
	if err != nil {
		return err
	}

	retrain := func(name string, parent int, s sgd.Samples) (*core.Result, *account.Accountant, time.Duration, error) {
		var res *core.Result
		var acct *account.Accountant
		d, err := r.timed(name, parent, func(int) error {
			t, err := core.NewContinualRDP(ingestBudget, 4, f,
				core.WithPasses(ingestPasses), core.WithBatch(ingestBatch), core.WithRadius(1/ingestLambda),
				core.WithStrategy(engine.Sequential, 1), core.WithKernelWorkers(1),
				core.WithRand(rand.New(rand.NewSource(r.seed))))
			if err != nil {
				return err
			}
			t.SetWarmStart(set.w0)
			res, err = t.Retrain(ctx, s)
			acct = t.Accountant()
			return err
		})
		return res, acct, d, r.op(err)
	}

	segDir := filepath.Join(r.work, "segments")
	var dir *store.Dir
	defer func() {
		if dir != nil {
			dir.Close()
		}
	}()
	var union *data.SparseDataset
	var fromDirT, fromMemT, ingestT tally
	var lats, segBytes []float64
	var firstW []float64
	err = r.measure(func() { fromDirT, fromMemT, ingestT, lats, segBytes = tally{}, tally{}, tally{}, nil, nil }, func(i, round int) error {
		if dir != nil {
			dir.Close()
			dir = nil
		}
		if err := os.RemoveAll(segDir); err != nil {
			return err
		}
		// Every round parses the same rows (the bit-identical retrains
		// below check it), so the in-memory union is built once.
		building := union == nil
		if building {
			union = data.NewSparseDataset("union", kddDim)
		}
		var ingestWall time.Duration
		for _, path := range set.files {
			var src *data.SparseDataset
			d, err := r.timed("ingest.window", round, func(id int) error {
				var err error
				if _, err = r.timed("data.parse", id, func(int) error {
					src, err = data.LoadLIBSVMSparse(path, kddDim)
					return err
				}); err != nil {
					return err
				}
				r.timed("data.normalize", id, func(int) error { src.Normalize(); return nil })
				if _, err = r.timed("store.append", id, func(int) error {
					_, err := store.AppendSegment(segDir, src, store.Options{})
					return err
				}); err != nil {
					return err
				}
				_, err = r.timed("store.reload", id, func(int) error {
					if dir == nil {
						var err error
						dir, err = store.OpenDir(segDir)
						return err
					}
					return dir.Reload()
				})
				return err
			})
			if r.op(err) != nil {
				if building {
					union = nil
				}
				return nil
			}
			ingestWall += d
			lats = append(lats, float64(d)/1e6)
			r.count("store.rows_appended", float64(src.Len()))
			for k := 0; building && k < src.Len(); k++ {
				x, y := src.AtSparse(k)
				if err := union.Append(x, y); err != nil {
					return err
				}
			}
		}
		ingestT.add(float64(set.rows), ingestWall)
		r.rows += float64(set.rows)
		r.check(dir.Len() == set.rows, "ingest-kdd: segment union holds %d rows, ingested %d", dir.Len(), set.rows)
		if r.tr != nil {
			segBytes = append(segBytes, float64(dirBytes(segDir))/float64(set.rows))
		}

		var fromDir, fromMem *core.Result
		var acct *account.Accountant
		var dd, md time.Duration
		var derr, merr error
		if i%2 == 0 {
			fromDir, acct, dd, derr = retrain("core.retrain_dir", round, dir)
			fromMem, _, md, merr = retrain("core.retrain_mem", round, union)
		} else {
			fromMem, _, md, merr = retrain("core.retrain_mem", round, union)
			fromDir, acct, dd, derr = retrain("core.retrain_dir", round, dir)
		}
		if derr != nil || merr != nil {
			return nil
		}
		rows := float64(set.rows * ingestPasses)
		fromDirT.add(rows, dd)
		fromMemT.add(rows, md)
		r.rows += 2 * rows
		r.check(bitEqual(fromDir.W, fromMem.W), "ingest-kdd: retrain from the segment directory differs from the in-memory retrain")
		r.check(fromDir.Passes == ingestPasses, "ingest-kdd: retrain made %d passes, rows·passes counts %d", fromDir.Passes, ingestPasses)
		if firstW == nil {
			firstW = fromDir.W
		}

		meta := map[string]string{}
		if err := acct.StampMeta(meta); r.op(err) != nil {
			return nil
		}
		_, err := r.timed("serve.publish", round, func(int) error {
			_, err := set.reg.Publish(fmt.Sprintf("kdd-w%d", i+1), &eval.Linear{W: fromDir.W}, meta)
			return err
		})
		if r.op(err) != nil {
			return nil
		}

		nnz := dir.NNZ()
		_, err = r.timed("store.compact", round, func(int) error {
			if _, _, err := store.Compact(segDir, 0); err != nil {
				return err
			}
			return dir.Reload()
		})
		if r.op(err) != nil {
			return nil
		}
		r.check(dir.Len() == set.rows && dir.NNZ() == nnz && dir.Segments() == 1,
			"ingest-kdd: compaction left %d rows / %d nnz in %d segments, want %d / %d in 1",
			dir.Len(), dir.NNZ(), dir.Segments(), set.rows, nnz)
		_, err = r.timed("store.verify", round, func(int) error { return dir.Verify() })
		r.check(err == nil, "ingest-kdd: Dir.Verify after compaction: %v", err)
		return nil
	})
	if err != nil {
		return err
	}
	if fromDirT.secs == 0 {
		return errNoSamples
	}
	r.e2e["rows_per_s"] = fromDirT.rate()
	r.layer["workload.latency_p50_ms"] = median(lats)
	acc := eval.Accuracy(set.test, &eval.Linear{W: firstW})
	r.e2e["accuracy"] = acc
	r.checkAccuracy(acc, ingestAccuracy)
	r.layer["store.read_overhead_x"] = fromDirT.secs / fromMemT.secs
	r.layer["store.ingest_rows_per_s"] = ingestT.rate()

	if r.tr == nil {
		return nil
	}
	appended := r.tr.counts["store.rows_appended"]
	r.layer["data.gen_s"] = r.spanMedian("data.gen") / 1e3
	r.layer["data.parse_rows_per_s"] = appended / (sum(r.tr.durations("data.parse")) / 1e3)
	r.layer["store.append_rows_per_s"] = appended / (sum(r.tr.durations("store.append")) / 1e3)
	r.layer["store.bytes_per_row"] = median(segBytes)
	r.layer["store.reload_ms"] = r.spanMedian("store.reload")
	r.layer["store.compact_s"] = r.spanMedian("store.compact") / 1e3
	r.layer["serve.publish_ms"] = r.spanMedian("serve.publish")

	// Per-layer probes over the compacted directory and the in-memory
	// union, after the measured phase.
	for range 3 {
		r.timed("store.scan", -1, func(int) error {
			var nnz int
			for k := 0; k < dir.Len(); k++ {
				x, _ := dir.AtSparse(k)
				nnz += len(x.Idx)
			}
			r.check(int64(nnz) == dir.NNZ(), "ingest-kdd: scan saw %d nnz, directory holds %d", nnz, dir.NNZ())
			return nil
		})
	}
	r.layer["store.scan_rows_per_s"] = float64(dir.Len()) / (r.spanMedian("store.scan") / 1e3)
	p := f.Params()
	for range 3 {
		r.timed("engine.sparse_pass", -1, func(int) error {
			_, err := engine.Run(union, engine.Config{SGD: sgd.Config{
				Loss: f, Step: sgd.StronglyConvexPaper(p.Beta, p.Gamma), Passes: 1, Batch: ingestBatch,
				Radius: 1 / ingestLambda, Rand: rand.New(rand.NewSource(r.seed)),
			}})
			return r.op(err)
		})
	}
	r.layer["engine.sparse_pass_ms"] = r.spanMedian("engine.sparse_pass")
	window := ingestBudget.Split(4)
	sigma := rng.GaussianSigma(1, window.Epsilon, window.Delta)
	for range 200 {
		acct, err := account.NewWithRule("rdp", ingestBudget)
		if r.op(err) != nil {
			break
		}
		r.timed("account.reserve", -1, func(int) error {
			return r.op(acct.ReserveGaussian("window[1/4]", sigma, 1, window))
		})
	}
	r.layer["account.reserve_us"] = r.spanMedian("account.reserve") * 1e3
	return nil
}

// writeLIBSVM writes rows [lo, hi) of d as a LIBSVM text file, with
// values in their shortest exact form so parsing reproduces them bit
// for bit.
func writeLIBSVM(path string, d *data.SparseDataset, lo, hi int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for i := lo; i < hi; i++ {
		x, y := d.Row(i)
		line = strconv.AppendFloat(line[:0], y, 'g', -1, 64)
		for k, j := range x.Idx {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(j+1), 10)
			line = append(line, ':')
			line = strconv.AppendFloat(line, x.Val[k], 'g', -1, 64)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirBytes sums the sizes of the segment files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".seg") {
			n += info.Size()
		}
	}
	return n
}
