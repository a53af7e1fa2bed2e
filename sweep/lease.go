package sweep

// Leased execution: the pieces the fleet job plane (gsfl/fleet) needs
// to run a job on a remote worker while keeping the determinism
// contract. The coordinator owns the Store and applies the resume rule
// (Store.ResumeOrDrop) before it hands a checkpoint out; a worker gets a
// Job (and possibly that checkpoint) over the wire, applies the same
// rule to what arrived, and runs the job through the same executor as
// the in-process Scheduler, with RunLeased uploading each checkpoint
// instead of keeping it. Results travel as manifest Entries, the codec
// the Store itself writes. All cross-process payloads are JSON: Go's
// float64 encoding round-trips exactly, so a result reconstructed on
// the coordinator is bit-equal to one computed in-process.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gsfl/internal/experiment"
	"gsfl/sim"
)

// wireJob is a Job's cross-process encoding. Job.Spec is json:"-" (a
// spec has no place in manifests), so the fleet wire spells it out
// explicitly.
type wireJob struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Scheme    string `json:"scheme"`
	Rounds    int    `json:"rounds"`
	EvalEvery int    `json:"eval_every"`
	Spec      Spec   `json:"spec"`
}

// MarshalJobWire encodes a job, spec included, for the fleet wire.
func MarshalJobWire(j Job) ([]byte, error) {
	return json.Marshal(wireJob{
		ID: j.ID, Name: j.Name, Scheme: j.Scheme,
		Rounds: j.Rounds, EvalEvery: j.EvalEvery, Spec: j.Spec,
	})
}

// UnmarshalJobWire decodes a job received over the fleet wire and
// verifies its integrity by recomputing the content-hash ID: a job
// whose bytes do not hash to the ID it claims must not execute under
// that identity.
func UnmarshalJobWire(data []byte) (Job, error) {
	var w wireJob
	if err := json.Unmarshal(data, &w); err != nil {
		return Job{}, fmt.Errorf("sweep: decoding wire job: %w", err)
	}
	j := Job{ID: w.ID, Name: w.Name, Scheme: w.Scheme, Rounds: w.Rounds, EvalEvery: w.EvalEvery, Spec: w.Spec}
	id, err := experiment.RehashJob(j)
	if err != nil {
		return Job{}, fmt.Errorf("sweep: wire job %s: %w", w.Name, err)
	}
	if id != w.ID {
		return Job{}, fmt.Errorf("sweep: wire job %s claims ID %s but hashes to %s", w.Name, w.ID, id)
	}
	return j, nil
}

// MarshalResultWire encodes a completed job's result for the fleet wire
// as its manifest Entry.
func MarshalResultWire(res JobResult) ([]byte, error) {
	return json.Marshal(entryOf(res))
}

// UnmarshalResultWire decodes a result received over the fleet wire and
// rebuilds it around j, the receiver's own canonical Job: identity
// fields on the wire are never trusted.
func UnmarshalResultWire(j Job, data []byte) (JobResult, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return JobResult{}, fmt.Errorf("sweep: decoding wire result for %s: %w", j.Name, err)
	}
	return resultOf(j, &e), nil
}

// LeaseCheckpoint is the handoff state attached to a lease of a
// partially-executed job: the progress sidecar plus the sim checkpoint
// bytes a previous worker uploaded before dying.
type LeaseCheckpoint struct {
	Progress Progress
	Ckpt     []byte
}

// LeaseCallbacks observe a leased job's execution. Both are invoked
// synchronously from the training goroutine, in round order, and both
// must be set.
type LeaseCallbacks struct {
	// OnRound fires after every completed round.
	OnRound func(round, rounds int, hostSeconds float64)
	// OnCheckpoint fires at every checkpoint boundary with the progress
	// sidecar and the checkpoint bytes just written. An error aborts the
	// job (the worker lost its lease, or the coordinator is gone).
	OnCheckpoint func(p Progress, ckpt []byte) error
}

// RunLeased executes one job on a fleet worker through the Scheduler's
// executor. The sim checkpoint lives under scratchDir; each one is read
// back and uploaded through cb.OnCheckpoint for the coordinator to
// persist. A handoff that passes the resume rule seeds a bit-identical
// mid-job resume and is otherwise discarded — never wrong, only slower.
func RunLeased(ctx context.Context, j Job, scratchDir string, checkpointEvery int, handoff *LeaseCheckpoint, cb LeaseCallbacks) (JobResult, error) {
	ckpt := filepath.Join(scratchDir, j.ID+".ckpt")
	defer os.Remove(ckpt)
	var prior *Progress
	if handoff != nil && len(handoff.Ckpt) > 0 {
		if err := os.WriteFile(ckpt, handoff.Ckpt, 0o644); err != nil {
			return JobResult{}, fmt.Errorf("sweep: staging handoff checkpoint: %w", err)
		}
		if resumable(j, ckpt, handoff.Progress) {
			prior = &handoff.Progress
		} else {
			os.Remove(ckpt)
		}
	}
	upload := func(p Progress) error {
		data, err := os.ReadFile(ckpt)
		if err != nil {
			return err
		}
		return cb.OnCheckpoint(p, data)
	}
	return execute(ctx, j, ckpt, checkpointEvery, prior, upload, func(e sim.RoundEvent) {
		cb.OnRound(e.Round, e.Rounds, e.HostSeconds)
	})
}
