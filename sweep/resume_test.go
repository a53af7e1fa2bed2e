package sweep_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gsfl/internal/experiment"
	"gsfl/sweep"
)

// ckptPair is a job's checkpoint and progress sidecar bytes as the store
// held them at one round boundary.
type ckptPair struct{ ckpt, progress []byte }

func progressPath(dir string, j sweep.Job) string {
	return filepath.Join(dir, "ckpt", j.ID+".progress")
}

// checkpointPairs runs jobs uninterrupted with per-round checkpointing
// and captures every pair the store held, by job ID and round.
func checkpointPairs(t *testing.T, jobs []sweep.Job) map[string]map[int]ckptPair {
	t.Helper()
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pairs := map[string]map[int]ckptPair{}
	sched := &sweep.Scheduler{
		Jobs:            1,
		CheckpointEvery: 1,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind != sweep.JobRound {
				return
			}
			// JobRound follows the round's checkpoint and sidecar writes.
			ckpt, err := os.ReadFile(store.CheckpointPath(e.Job))
			if err != nil {
				t.Error(err)
			}
			progress, err := os.ReadFile(progressPath(dir, e.Job))
			if err != nil {
				t.Error(err)
			}
			if pairs[e.Job.ID] == nil {
				pairs[e.Job.ID] = map[int]ckptPair{}
			}
			pairs[e.Job.ID][e.Round] = ckptPair{ckpt, progress}
		})},
	}
	if _, err := sched.Run(context.Background(), jobs, store); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestSchedulerResumeRule seeds a store with one checkpoint pair per
// case and sweeps a single job over it. Only a pair that names the
// job's scheme and one round, with rounds left to run, may resume; any
// other pair is dropped before the first round and the job reruns from
// scratch. Either way the store ends byte-identical to an uninterrupted
// run.
func TestSchedulerResumeRule(t *testing.T) {
	g := sweep.Grid{
		Name: "resume", Base: experiment.TestSpec(), Rounds: 3, EvalEvery: 1,
		Axes: sweep.Axes{Schemes: []string{"gsfl", "sl"}},
	}
	jobs := jobsOf(t, g)
	j, other := jobs[0], jobs[1]
	if j.Scheme == other.Scheme {
		t.Fatalf("grid jobs share scheme %q", j.Scheme)
	}
	pairs := checkpointPairs(t, jobs)
	refDir := t.TempDir()
	runSweep(t, []sweep.Job{j}, refDir, &sweep.Scheduler{Jobs: 1, CheckpointEvery: 1})
	want := readTree(t, refDir)

	mine := pairs[j.ID]
	cases := []struct {
		name    string
		pair    ckptPair
		resumed bool
	}{
		{"sound pair resumes", mine[2], true},
		{"sidecar one round behind its checkpoint", ckptPair{mine[2].ckpt, mine[1].progress}, false},
		{"checkpoint of another scheme", pairs[other.ID][2], false},
		{"checkpoint at the final round", mine[g.Rounds], false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pair.ckpt == nil || tc.pair.progress == nil {
				t.Fatal("reference run left no checkpoint pair for this case")
			}
			dir := t.TempDir()
			store, err := sweep.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.WriteCheckpoint(j, tc.pair.ckpt); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(progressPath(dir, j), tc.pair.progress, 0o644); err != nil {
				t.Fatal(err)
			}
			resumed := 0
			var kept []string
			sched := &sweep.Scheduler{
				Jobs:            1,
				CheckpointEvery: 1,
				Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
					switch e.Kind {
					case sweep.JobResumed:
						resumed++
					case sweep.JobStarted:
						// The rule has run; a rejected pair must be gone.
						for _, p := range []string{store.CheckpointPath(j), progressPath(dir, j)} {
							if _, err := os.Stat(p); err == nil {
								kept = append(kept, filepath.Base(p))
							}
						}
					}
				})},
			}
			_, err = sched.Run(context.Background(), []sweep.Job{j}, store)
			store.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.resumed {
				if resumed != 1 {
					t.Fatalf("sound pair: %d JobResumed events, want 1", resumed)
				}
			} else {
				if resumed != 0 {
					t.Fatalf("unsound pair resumed (%d JobResumed events)", resumed)
				}
				if len(kept) > 0 {
					t.Fatalf("unsound pair not dropped before the run: %v still in the store", kept)
				}
			}
			got := readTree(t, dir)
			if len(got) != len(want) {
				t.Fatalf("store has %d files, want %d", len(got), len(want))
			}
			for path, body := range want {
				if got[path] != body {
					t.Fatalf("store file %s differs from an uninterrupted run", path)
				}
			}
		})
	}
}
