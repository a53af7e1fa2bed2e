package fleet_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gsfl/fleet"
	"gsfl/internal/transport"
	"gsfl/sweep"
)

// unsoundPair runs j with per-round checkpointing and returns its
// round-2 checkpoint with its round-1 progress sidecar: the pair a crash
// between the checkpoint write and the sidecar write leaves behind.
func unsoundPair(t *testing.T, j sweep.Job) (ckpt, progress []byte) {
	t.Helper()
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sched := &sweep.Scheduler{
		Jobs:            1,
		CheckpointEvery: 1,
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			var err error
			switch {
			case e.Kind == sweep.JobRound && e.Round == 1:
				progress, err = os.ReadFile(filepath.Join(dir, "ckpt", j.ID+".progress"))
			case e.Kind == sweep.JobRound && e.Round == 2:
				ckpt, err = os.ReadFile(store.CheckpointPath(j))
			}
			if err != nil {
				t.Error(err)
			}
		})},
	}
	if _, err := sched.Run(context.Background(), []sweep.Job{j}, store); err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || progress == nil {
		t.Fatal("no checkpoint pair captured")
	}
	return ckpt, progress
}

// TestFleetDropsUnsoundHandoff: a stored checkpoint whose sidecar is one
// round behind must not ride a lease. The coordinator grants the job
// from round 0 with no checkpoint bytes, drops the pair, and the sweep
// still ends byte-identical to the Jobs=1 reference.
func TestFleetDropsUnsoundHandoff(t *testing.T) {
	jobs := jobsOf(t, testGrid())
	want := referenceTree(t, jobs)
	j := jobs[0]
	ckpt, progress := unsoundPair(t, j)

	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.WriteCheckpoint(j, ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt", j.ID+".progress"), progress, 0o644); err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		rounds []int // handoff round of every lease of j
	)
	observer := fleet.ObserverFunc(func(e fleet.Event) {
		if e.Kind == fleet.JobLeased && e.Job.ID == j.ID {
			mu.Lock()
			rounds = append(rounds, e.Round)
			mu.Unlock()
		}
	})
	c, err := fleet.Serve("127.0.0.1:0", jobs, store, fleet.Config{
		CheckpointEvery: 1,
		Observers:       []fleet.Observer{observer},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A raw client takes the first lease, which is j's.
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := transport.NewFleetConn(conn, 0)
	if err := fc.WriteHello(transport.FleetHello{Worker: "probe", PID: 1}); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := fc.ReadFrame(); err != nil || kind != transport.FrameFleetHello {
		t.Fatalf("welcome: kind %d err %v", kind, err)
	}
	if err := fc.WriteLeaseRequest(); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := fc.ReadFrame()
	if err != nil || kind != transport.FrameFleetLease {
		t.Fatalf("lease reply: kind %d err %v", kind, err)
	}
	lease, err := transport.DecodeFleetLease(payload)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Status != transport.LeaseGrant || lease.JobID != j.ID {
		t.Fatalf("lease status %d for job %s, want a grant of %s", lease.Status, lease.JobID, j.ID)
	}
	if len(lease.Ckpt) != 0 || len(lease.Progress) != 0 {
		t.Fatalf("unsound pair rode the lease: %d checkpoint bytes, %d progress bytes", len(lease.Ckpt), len(lease.Progress))
	}
	for _, p := range []string{store.CheckpointPath(j), filepath.Join(dir, "ckpt", j.ID+".progress")} {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("unsound pair not dropped: %s still in the store", filepath.Base(p))
		}
	}
	conn.Close() // a dropped connection releases its lease at once

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- fleet.RunWorker(ctx, fleet.WorkerConfig{Addr: c.Addr().String(), Name: "live"})
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	if _, err := c.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if werr := <-done; !workerOK(werr) {
		t.Fatalf("live worker: %v", werr)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range rounds {
		if r != 0 {
			t.Fatalf("leases of %s carried handoff rounds %v, want every one from round 0", j.Name, rounds)
		}
	}
	requireSameTree(t, want, readTree(t, dir))
}
