package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gsfl/internal/parallel"
	"gsfl/obs"
	"gsfl/sim"
)

// EventKind labels a scheduler progress event.
type EventKind int

const (
	// JobStarted fires when a job begins executing (fresh or resumed).
	JobStarted EventKind = iota
	// JobRound fires after each completed round of a running job.
	JobRound
	// JobDone fires when a job finishes and its result is recorded.
	JobDone
	// JobSkipped fires when the store already holds the job's result.
	JobSkipped
	// JobResumed fires when a job restarts from a sim checkpoint left by
	// a killed sweep; Round carries the round it resumed after.
	JobResumed
	// JobFailed fires when a job returns an error (the sweep aborts).
	JobFailed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case JobStarted:
		return "started"
	case JobRound:
		return "round"
	case JobDone:
		return "done"
	case JobSkipped:
		return "skipped"
	case JobResumed:
		return "resumed"
	case JobFailed:
		return "failed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one progress report from a running sweep.
type Event struct {
	Kind EventKind
	// Job is the subject; Index/Total position it in the deduplicated
	// schedule (Index is 0-based).
	Job   Job
	Index int
	Total int
	// Round/Rounds report training progress (JobRound, JobResumed).
	Round  int
	Rounds int
	// HostSeconds is the real wall-clock cost: of the round for
	// JobRound, of the whole job for JobDone.
	HostSeconds float64
	// Err is set on JobFailed.
	Err error
}

// Observer receives Events. Calls are serialized by the scheduler but
// may originate from any job goroutine, in completion order.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Scheduler executes a list of Jobs concurrently. The zero value runs
// GOMAXPROCS jobs at a time with no checkpointing; set the fields
// before Run.
type Scheduler struct {
	// Jobs is the number of jobs in flight at once (<= 0 means
	// runtime.GOMAXPROCS(0)).
	Jobs int
	// Workers is the global worker budget shared by all in-flight jobs:
	// Run sets the parallel pool to parallel.Budget(Workers, inflight),
	// so job goroutines plus pool helpers never exceed it (0 means
	// GOMAXPROCS).
	Workers int
	// CheckpointEvery, when positive and a store is present, persists
	// each in-flight job's sim checkpoint (plus the store's progress
	// sidecar) every n rounds, making killed sweeps resumable mid-job.
	CheckpointEvery int
	// Observers receive progress events.
	Observers []Observer
	// Tracer, when non-nil, records one wall-clock track per executed
	// job under the "sweep" process: a span covering the job's run,
	// per-round child spans sized by the rounds' host cost, and resume
	// markers. Skipped jobs leave no track. Nil disables tracing at zero
	// cost.
	Tracer *obs.Tracer
}

// Run executes the jobs and returns their results in input order.
// Duplicate IDs in the input (overlapping grids) are executed once and
// fanned out to every position. With a store, jobs already recorded are
// skipped, jobs with a live checkpoint resume from it, and on success
// the manifest is compacted into job order — so the store's final bytes
// are independent of concurrency, scheduling, and interruptions. The
// first job error (or ctx cancellation) stops the sweep; checkpoints of
// in-flight jobs survive for the next run.
func (s *Scheduler) Run(ctx context.Context, jobs []Job, store *Store) ([]JobResult, error) {
	inflight := s.Jobs
	if inflight < 1 {
		inflight = runtime.GOMAXPROCS(0)
	}

	unique, indexOf, err := Dedup(jobs)
	if err != nil {
		return nil, err
	}
	if inflight > len(unique) {
		inflight = len(unique)
	}
	if inflight > 0 {
		// Split the worker budget across in-flight jobs for the duration
		// of the sweep, restoring the caller's pool afterwards.
		prev := parallel.Workers()
		parallel.SetWorkers(parallel.Budget(s.Workers, inflight))
		defer parallel.SetWorkers(prev)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	emit := func(e Event) {
		mu.Lock()
		for _, obs := range s.Observers {
			obs.OnEvent(e)
		}
		mu.Unlock()
	}

	results := make([]JobResult, len(unique))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				if ctx.Err() != nil {
					continue // drain
				}
				res, err := s.runOne(ctx, unique[idx], idx, len(unique), store, emit)
				if err != nil {
					if ctx.Err() == nil {
						emit(Event{Kind: JobFailed, Job: unique[idx], Index: idx, Total: len(unique), Err: err})
					}
					fail(err)
					continue
				}
				results[idx] = res
			}
		}()
	}
	for i := range unique {
		queue <- i
	}
	close(queue)
	wg.Wait()

	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if store != nil {
		if err := store.Compact(unique); err != nil {
			return nil, err
		}
	}
	out := make([]JobResult, len(jobs))
	for i, j := range jobs {
		out[i] = results[indexOf[j.ID]]
	}
	return out, nil
}

// runOne executes (or skips, or resumes) a single unique job.
func (s *Scheduler) runOne(ctx context.Context, j Job, idx, total int, store *Store, emit func(Event)) (JobResult, error) {
	if store != nil {
		if res, ok := store.Result(j); ok {
			// The timings sidecar (when the recording run left one) carries
			// the job's real host cost, so a resumed sweep's ETA starts from
			// the completed work instead of zero.
			hostSec, _ := store.HostSecondsOf(j.ID)
			emit(Event{Kind: JobSkipped, Job: j, Index: idx, Total: total, Rounds: j.Rounds, HostSeconds: hostSec})
			return res, nil
		}
	}

	// The job's wall-clock trace lane. Each unique job executes exactly
	// once, in one worker goroutine, so the track has a single owner; the
	// deferred End records the job span even when the job fails — the
	// attempt's duration is exactly what a post-mortem wants.
	tk := s.Tracer.Lane("sweep", j.Name)
	jobSpan := tk.BeginWall(j.Name, "job")
	defer jobSpan.End()

	// A job resumes from its store checkpoint only when the pair passes
	// the resume rule; anything else was dropped and the job runs fresh.
	start := time.Now()
	var (
		ckpt  string
		prior *Progress
	)
	if store != nil && s.CheckpointEvery > 0 {
		ckpt = store.CheckpointPath(j)
		if p, ok := store.ResumeOrDrop(j); ok {
			prior = &p
		}
	}
	emit(Event{Kind: JobStarted, Job: j, Index: idx, Total: total, Rounds: j.Rounds})
	if prior != nil {
		emit(Event{Kind: JobResumed, Job: j, Index: idx, Total: total, Round: prior.Round, Rounds: j.Rounds})
		if tk.On() {
			tk.WallInstant("resume", "job", tk.Labelf("from round %d", prior.Round))
		}
	}
	// The sim already wrote the checkpoint; only the sidecar is left to
	// persist. A failed progress write only costs resume work for this
	// job, so it never aborts the run.
	save := func(p Progress) error {
		_ = store.SaveProgress(j, p)
		return nil
	}
	res, err := execute(ctx, j, ckpt, s.CheckpointEvery, prior, save, func(e sim.RoundEvent) {
		if tk.On() {
			d := time.Duration(e.HostSeconds * float64(time.Second))
			tk.WallSpanAt(tk.Labelf("round %d", e.Round), "round", time.Now().Add(-d), d)
		}
		emit(Event{
			Kind: JobRound, Job: j, Index: idx, Total: total,
			Round: e.Round, Rounds: e.Rounds, HostSeconds: e.HostSeconds,
		})
	})
	if err != nil {
		return JobResult{}, err
	}

	hostSec := time.Since(start).Seconds()
	if store != nil {
		if err := store.Record(res); err != nil {
			return JobResult{}, err
		}
		// Advisory: feeds the resumed-sweep ETA, never the manifest.
		_ = store.RecordTiming(j.ID, hostSec)
	}
	emit(Event{
		Kind: JobDone, Job: j, Index: idx, Total: total,
		Round: j.Rounds, Rounds: j.Rounds, HostSeconds: hostSec,
	})
	return res, nil
}
