package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
)

// distKDD trains a private KDD model on a coordinator and two loopback
// dist.Workers (P = 2, inline source: the installs carry the CSR rows),
// interleaved with the single-process engine.Sharded(2) run of the same
// job, which it must match bit for bit.
//
// The job is dpcoord's default one (-scale 0.05 -passes 10 -batch 50
// -lambda 1e-3) on the one-hot sparse KDD rows, whose installs travel
// as base64 CSR, at ε = 4 rather than dpcoord's 0.1, so that accuracy
// varies little between seeds; ε does not change the traffic.
//
// A run makes a fixed number of jobs per second of --seconds rather
// than as many as fit: dist.Worker keeps every finished job's shards,
// so the process's memory grows with each job and peak_rss_mb would
// otherwise rise whenever the jobs got faster.
//
// End-to-end metrics on this workload:
//   - rows_per_s: distributed training rows·passes per second of the
//     median distributed job's wall
//   - accuracy: test accuracy of the distributed private model
//   - setup_s: generating the rows, starting both workers and
//     registering them with the coordinator
//
// Reported per layer: dist.overhead_x (distributed wall ÷
// single-process Sharded(2) wall, summed over the interleaved pairs)
// and workload.latency_p50_ms (median wall of one distributed job).
var distKDD = &workload{
	name: "dist-kdd",
	why:  "coordinator-worker wire layer, measured nowhere else, against the single-process Sharded(2) run it must match bit for bit",
	loads: []string{"data (KDDSimSparse)", "dist (coordinator, workers, base64-CSR installs, epoch rounds)", "core.TrainDistributed",
		"engine.Sharded(2)", "sparse kernel", "dp", "eval", "go runtime"},
	bypasses: []string{"store", "serve", "dense kernel", "gradient perturbation"},
	run:      runDistKDD,
}

const (
	distScale   = 0.05 // KDDSimSparse scale: ~24k train rows
	distWorkers = 2
	distPasses  = 10
	distBatch   = 50
	distLambda  = 1e-3
	distEpsilon = 4
	// A run warms up with distWarmRounds rounds, then measures
	// distRoundsPerSecond rounds (one distributed and one Sharded(2)
	// job each) per second of --seconds, started at even intervals. A
	// round takes about 0.16 s on a 2-vCPU Xeon at this commit, and
	// every distributed job leaves ~6 MB in the workers, so a 25 s run
	// ends with ~250 MB resident.
	distWarmRounds      = 3
	distRoundsPerSecond = 1
)

// distAccuracy is the distributed model's test accuracy at defaultSeed.
const distAccuracy = 0.9947389720760825

type distSet struct {
	train, test *data.SparseDataset
	src         dist.Source
	coord       *dist.Coordinator
	taps        []*wireTap
}

func runDistKDD(r *run) error {
	ctx := context.Background()
	f := loss.NewLogistic(distLambda, 0)
	set, cleanup, err := setupRepeated(r, func() (distSet, func(), error) {
		var set distSet
		r.timed("data.gen", -1, func(int) error {
			set.train, set.test = data.KDDSimSparse(rand.New(rand.NewSource(r.seed)), distScale*r.scale)
			return nil
		})
		set.src = dist.NewInlineSource(set.train)
		set.coord = dist.NewCoordinator(dist.CoordinatorConfig{})
		var stops []func()
		stop := func() {
			for _, s := range stops {
				s()
			}
		}
		for range distWorkers {
			wk := dist.NewWorker()
			tap := &wireTap{h: wk.Handler(), r: r}
			addr, stopServer, err := listen(tap)
			if err != nil {
				wk.Close()
				stop()
				return distSet{}, nil, err
			}
			stops = append(stops, func() {
				stopServer()
				wk.Close()
			})
			set.taps = append(set.taps, tap)
			if err := set.coord.Register(ctx, addr); err != nil {
				stop()
				return distSet{}, nil, err
			}
		}
		return set, stop, nil
	})
	defer cleanup()
	if err != nil {
		return err
	}

	opts := func() []core.Option {
		return []core.Option{
			core.WithBudget(dp.Budget{Epsilon: distEpsilon}),
			core.WithPasses(distPasses), core.WithBatch(distBatch), core.WithRadius(1 / distLambda),
			core.WithStrategy(engine.Sharded, distWorkers),
			core.WithRand(rand.New(rand.NewSource(r.seed))),
		}
	}
	var distT, shardedT tally
	var lats []float64
	var firstW []float64
	jobs := 0
	rows := float64(set.train.Len() * distPasses)
	rounds := max(1, int(distRoundsPerSecond*r.seconds.Seconds()*r.scale))
	err = r.measureRounds(distWarmRounds, rounds, func() { distT, shardedT, lats = tally{}, tally{}, nil }, func(i, round int) error {
		var dres, sres *core.Result
		var dd, sd time.Duration
		var derr, serr error
		distributed := func() {
			jobs++
			dd, derr = r.timed("core.train_distributed", round, func(int) error {
				var err error
				dres, err = core.TrainDistributed(ctx, set.coord, set.src, f, opts()...)
				return err
			})
			r.op(derr)
		}
		sharded := func() {
			sd, serr = r.timed("engine.sharded2", round, func(int) error {
				var err error
				sres, err = core.TrainCtx(ctx, set.train, f, opts()...)
				return err
			})
			r.op(serr)
		}
		if i%2 == 0 {
			distributed()
			sharded()
		} else {
			sharded()
			distributed()
		}
		if derr != nil || serr != nil {
			return nil
		}
		distT.add(rows, dd)
		shardedT.add(rows, sd)
		lats = append(lats, float64(dd)/1e6)
		r.rows += 2 * rows
		r.check(bitEqual(dres.W, sres.W), "dist-kdd: distributed model differs from single-process Sharded(%d)", distWorkers)
		r.check(dres.Passes == distPasses && sres.Passes == distPasses,
			"dist-kdd: runs made %d and %d merge epochs, rows·passes counts %d", dres.Passes, sres.Passes, distPasses)
		if firstW == nil {
			firstW = dres.W
		}
		return nil
	})
	if err != nil {
		return err
	}
	if distT.secs == 0 {
		return errNoSamples
	}
	// The rate of the median job: a run measures few jobs (see
	// distRoundsPerSecond), and one slow job would move a sum over them
	// by several percent.
	r.e2e["rows_per_s"] = rows / (median(lats) / 1e3)
	r.layer["dist.overhead_x"] = distT.secs / shardedT.secs
	r.layer["workload.latency_p50_ms"] = median(lats)
	acc := eval.Accuracy(set.test, &eval.Linear{W: firstW})
	r.e2e["accuracy"] = acc
	r.checkAccuracy(acc, distAccuracy)

	var w wireTotals
	for _, t := range set.taps {
		w.add(t.totals())
	}
	// Every install and epoch call beyond one per shard (per epoch) is
	// a retry or a reassignment.
	retries := w.installs - jobs*distWorkers + w.epochs - jobs*distWorkers*distPasses
	r.check(retries == 0, "dist-kdd: %d worker calls were retried", retries)
	r.layer["engine.sharded2_rows_per_s"] = shardedT.rate()
	if r.tr == nil {
		return nil
	}
	r.layer["data.gen_s"] = r.spanMedian("data.gen") / 1e3
	r.layer["engine.sharded2_s"] = r.spanMedian("engine.sharded2") / 1e3
	r.layer["dist.install_ms"] = r.spanMedian("dist.install")
	r.layer["dist.install_bytes"] = float64(w.installBytes) / float64(w.installs)
	r.layer["dist.epoch_round_ms"] = r.spanMedian("dist.epoch")
	r.layer["dist.epoch_bytes"] = float64(w.epochBytes) / float64(w.epochs)
	r.layer["dist.calls_per_epoch"] = float64(w.epochs) / float64(jobs*distPasses)
	r.layer["dist.retries"] = float64(retries)
	return nil
}

// wireTap wraps a worker's handler: it counts the calls and the bytes
// each route moves (request body in, response body out) and, in a
// traced run, records each call as a span.
type wireTap struct {
	h http.Handler
	r *run

	mu sync.Mutex
	t  wireTotals
}

type wireTotals struct {
	installs, epochs         int
	installBytes, epochBytes int64
}

func (w *wireTotals) add(o wireTotals) {
	w.installs += o.installs
	w.epochs += o.epochs
	w.installBytes += o.installBytes
	w.epochBytes += o.epochBytes
}

func (t *wireTap) totals() wireTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	name := ""
	switch req.URL.Path {
	case dist.PathShard:
		name = "dist.install"
	case dist.PathEpoch:
		name = "dist.epoch"
	default:
		t.h.ServeHTTP(w, req)
		return
	}
	body := &countingReader{rc: req.Body}
	req.Body = body
	cw := &countingWriter{ResponseWriter: w}
	t.r.timed(name, -1, func(int) error {
		t.h.ServeHTTP(cw, req)
		return nil
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == "dist.install" {
		t.t.installs++
		t.t.installBytes += body.n + cw.n
	} else {
		t.t.epochs++
		t.t.epochBytes += body.n + cw.n
	}
}

type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
