package sweep

import (
	"context"
	"fmt"

	"gsfl/internal/experiment"
	"gsfl/sim"
)

// Dedup drops repeated job IDs, keeping first occurrences in order, and
// maps every ID to its position in unique. Overlapping grids share
// cells, and a shared cell must run once — in the Scheduler and in a
// fleet coordinator alike.
func Dedup(jobs []Job) (unique []Job, indexOf map[string]int, err error) {
	indexOf = map[string]int{}
	for _, j := range jobs {
		if j.ID == "" {
			return nil, nil, fmt.Errorf("sweep: job %q has no ID (expand jobs via Grid.Jobs)", j.Name)
		}
		if _, ok := indexOf[j.ID]; !ok {
			indexOf[j.ID] = len(unique)
			unique = append(unique, j)
		}
	}
	return unique, indexOf, nil
}

// execute runs one job: the single execution path behind the in-process
// Scheduler and a fleet worker (RunLeased). With ckpt set and every > 0
// the sim checkpoints the job to ckpt every `every` rounds, and save
// receives the progress sidecar of each checkpoint boundary. The two
// callers differ only in save: the Scheduler writes the sidecar next to
// the checkpoint in its store, a worker uploads both to its coordinator.
// A save error aborts the job at the next round boundary.
//
// A nil prior starts the job from scratch. Otherwise the job resumes
// from the checkpoint at ckpt, and prior must be that checkpoint's
// sidecar, already past the resume rule (resumable). Its sums
// seed the one progress accumulator, so a resumed job adds each round's
// ledger in the same floating-point order as an uninterrupted run.
// onRound sees every completed round, after save.
func execute(ctx context.Context, j Job, ckpt string, every int, prior *Progress, save func(Progress) error, onRound func(sim.RoundEvent)) (JobResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var seed Progress
	if prior != nil {
		seed = *prior
	}
	sum, total := ledgerOf(seed.Components), seed.TotalSeconds
	var saveErr error
	opts := []sim.RunOption{sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
		sum.Merge(e.Ledger)
		total += e.RoundSeconds
		if e.CheckpointPath != "" && saveErr == nil {
			if saveErr = save(Progress{Round: e.Round, Components: componentsOf(&sum), TotalSeconds: total}); saveErr != nil {
				cancel()
			}
		}
		onRound(e)
	}))}
	if ckpt != "" && every > 0 {
		opts = append(opts, sim.WithCheckpointPath(ckpt), sim.WithCheckpointEvery(every))
	}

	var (
		res JobResult
		err error
	)
	if prior == nil {
		res, err = experiment.RunJob(ctx, j, opts...)
	} else {
		var start int
		// sum and total still hold the prior's seed: no round has run.
		res, start, err = experiment.ResumeJob(ctx, j, ckpt, sum, total, opts...)
		if err == nil && start != prior.Round {
			err = fmt.Errorf("sweep: job %s: checkpoint moved from round %d to %d during resume", j.Name, prior.Round, start)
		}
	}
	switch {
	case saveErr != nil:
		return JobResult{}, saveErr
	case err != nil && ctx.Err() != nil:
		return JobResult{}, ctx.Err()
	case err != nil:
		return JobResult{}, err
	}
	return res, nil
}
