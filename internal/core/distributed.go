package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"boltondp/internal/dist"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// jobSeq distinguishes jobs issued by this process, so concurrent
// TrainDistributed calls sharing a worker pool never collide on shard
// state.
var jobSeq atomic.Uint64

// TrainDistributed runs the bolt-on private PSGD appropriate for the
// loss on a distributed coordinator/worker pool (internal/dist) instead
// of the in-process engine. It is the distributed counterpart of
// TrainCtx with the Sharded strategy: WithStrategy(engine.Sharded, P)
// selects the shard count (default 1), the run is calibrated by the
// same calibrate as TrainCtx (so WithConvexity, WithStep and
// WithPaperBatchSensitivity mean what they mean in-process), and the
// result — model, ledger entry, noise draw — is bit-identical to the
// single-process run under the same seed (the parity contract pinned by
// the internal/dist tests).
//
// Options that require mid-run access to the whole dataset or change
// the randomness schedule are rejected: Tol and Progress (per-epoch
// risk needs every row), AverageTail (not supported under Sharded),
// FreshPerm (the sharded executor resamples per-shard permutations
// every epoch already; the flag only has meaning for multi-pass
// sequential runs, whose distributed form ships one pinned
// permutation), and gradient perturbation (Sequential-only, as
// in-process).
func TrainDistributed(ctx context.Context, coord *dist.Coordinator, src dist.Source, f loss.Function, opts ...Option) (*Result, error) {
	o := buildOptions(ctx, opts)
	switch {
	case o.GradPerturb != nil:
		return nil, errors.New("core: gradient perturbation is Sequential-only (per-step accounting assumes one update stream); not available distributed")
	case o.Tol > 0:
		return nil, errors.New("core: Tol-based early stopping needs per-epoch risk over the whole dataset; not available distributed")
	case o.Progress != nil:
		return nil, errors.New("core: Progress needs per-epoch risk over the whole dataset; not available distributed")
	case o.AverageTail:
		return nil, errors.New("core: AverageTail is not supported under Sharded execution")
	case o.FreshPerm:
		return nil, errors.New("core: FreshPerm does not apply to distributed runs (sharded epochs already resample; single-shard runs ship one pinned permutation)")
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	o.Strategy = engine.Sharded
	c, err := calibrate(o, f, src.Rows())
	if err != nil {
		return nil, err
	}
	lossSpec, err := dist.LossSpecFor(f)
	if err != nil {
		return nil, err
	}
	job := dist.Job{
		ID: fmt.Sprintf("train-%s-%d", f.Name(), jobSeq.Add(1)),
		Spec: dist.TrainSpec{
			Loss: lossSpec, Step: c.step,
			Batch: c.Batch, Radius: c.Radius, Average: c.Average,
			KernelWorkers: c.KernelWorkers,
		},
		Shards: c.Workers,
		Passes: c.Passes,
		W0:     c.W0,
	}

	if err := c.reserveBudget(f); err != nil {
		return nil, err
	}
	runCtx := c.Ctx
	if runCtx == nil {
		runCtx = context.Background()
	}
	res, err := coord.Train(runCtx, src, job, c.Rand)
	if err != nil {
		return nil, err
	}
	return perturb(&sgd.Result{
		W: res.W, WAvg: res.WAvg, Updates: res.Updates, Passes: res.Passes,
	}, c.options, c.sens)
}
