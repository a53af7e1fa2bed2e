package sweep

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"gsfl/internal/metrics"
	"gsfl/internal/simnet"
	"gsfl/internal/trace"
	"gsfl/sim"
)

// Store layout under its directory:
//
//	manifest.jsonl         one Entry per completed job, appended as jobs
//	                       finish, rewritten into job order on Compact
//	curves/<id>.csv        the job's training curve (trace long format)
//	ckpt/<id>.ckpt         sim checkpoint of an in-flight job (transient)
//	ckpt/<id>.progress     sweep-side cumulative ledger at the same round
//	                       boundary as the checkpoint (transient)
//
// Everything durable is keyed by the job's content-hash ID, so a store
// is shared safely by overlapping grids and across resumed runs.
const (
	manifestName = "manifest.jsonl"
	curvesDir    = "curves"
	ckptDir      = "ckpt"
	// timingsName is a transient host wall-clock sidecar: one line per
	// recorded job ({"id":…,"host_seconds":…}), appended on Record and
	// deleted on Compact. It exists so a resumed sweep can seed its ETA
	// from the completed jobs' real cost without host time ever reaching
	// the manifest — a completed store stays byte-identical across
	// machines and kill schedules.
	timingsName = "timings.jsonl"
	// lockName is the store's advisory-lock file.
	lockName = ".lock"
)

// Point is one stored curve evaluation (a metrics.Point with fixed JSON
// field names, so the manifest format does not silently track internal
// renames).
type Point struct {
	Round          int     `json:"round"`
	LatencySeconds float64 `json:"latency_seconds"`
	Loss           float64 `json:"loss"`
	Accuracy       float64 `json:"accuracy"`
}

// Entry is one manifest record: a completed job's identity and results.
// Every field is deterministic — host wall-clock never enters the
// manifest — so equal sweeps produce byte-equal manifests.
type Entry struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Scheme    string `json:"scheme"`
	Rounds    int    `json:"rounds"`
	EvalEvery int    `json:"eval_every"`
	Seed      int64  `json:"seed"`
	// FinalAccuracy and ElapsedSeconds summarize the run; Components is
	// the per-component virtual-latency sum over all rounds and
	// TotalSeconds the round-ordered sum of critical-path totals.
	FinalAccuracy  float64            `json:"final_accuracy"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	TotalSeconds   float64            `json:"total_seconds"`
	Components     map[string]float64 `json:"components"`
	// Points is the training curve; CurveFile the per-job CSV copy
	// (relative to the store directory).
	Points    []Point `json:"points"`
	CurveFile string  `json:"curve_file"`
}

// Progress is the transient sidecar persisted next to a job's sim
// checkpoint: the sweep-level accumulators the checkpoint itself does
// not carry. Round must match the checkpoint's completed rounds; a
// mismatch (crash between the two writes) discards both and the job
// restarts from scratch — determinism is never at risk, only work.
// It is exported because the fleet coordinator ships it to workers as
// part of a lease's checkpoint handoff.
type Progress struct {
	Round        int                `json:"round"`
	Components   map[string]float64 `json:"components"`
	TotalSeconds float64            `json:"total_seconds"`
}

// ErrStoreLocked reports a store directory already held open by another
// process (a live coordinator or scheduler).
var ErrStoreLocked = errors.New("sweep: store is locked by another process")

// Store is the durable state of a sweep. It is safe for concurrent use
// by one Scheduler. An open Store holds an exclusive advisory lock on
// its directory, so two processes (say, a fleet coordinator and a
// stray single-process sweep) cannot interleave manifest appends.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[string]*Entry
	timings map[string]float64 // job ID -> host seconds (transient sidecar)
	f       *os.File           // manifest append handle
	lock    *os.File           // flock handle on lockName
}

// OpenStore opens (creating if needed) a sweep results directory and
// loads its manifest. A trailing partially-written manifest line (crash
// mid-append) is dropped; complete entries before it stand. Opening a
// store another process holds open fails with ErrStoreLocked; a
// manifest momentarily absent because a compacting coordinator is
// mid-rename is retried, not treated as empty.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, curvesDir), filepath.Join(dir, ckptDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: creating store directory: %w", err)
		}
	}
	lock, err := lockStore(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, entries: map[string]*Entry{}, timings: map[string]float64{}, lock: lock}
	path := filepath.Join(dir, manifestName)
	if data, err := openManifest(dir); err == nil {
		sc := bufio.NewScanner(data)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				break // partial trailing line from a crash; stop here
			}
			s.entries[e.ID] = &e
		}
		data.Close()
	} else if !os.IsNotExist(err) {
		lock.Close()
		return nil, fmt.Errorf("sweep: opening manifest: %w", err)
	}
	s.loadTimings()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("sweep: opening manifest for append: %w", err)
	}
	s.f = f
	return s, nil
}

// lockStore takes the store's exclusive advisory lock. The lock is held
// by the open file descriptor, so a crashed process releases it
// automatically.
func lockStore(dir string) (*os.File, error) {
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening store lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("%w: %s", ErrStoreLocked, dir)
	}
	return lock, nil
}

// openManifest opens the manifest tolerating a concurrently-compacting
// coordinator. Compact replaces the file atomically via rename, but a
// reader that raced StoreExists can still observe ErrNotExist on
// filesystems that surface the swap as unlink+link; the in-flight
// rename is distinguishable from a genuinely fresh store by Compact's
// temp file, so retry while one is visible.
func openManifest(dir string) (*os.File, error) {
	path := filepath.Join(dir, manifestName)
	for attempt := 0; ; attempt++ {
		f, err := os.Open(path)
		if err == nil || !errors.Is(err, os.ErrNotExist) || attempt >= 100 {
			return f, err
		}
		tmps, _ := filepath.Glob(filepath.Join(dir, ".manifest-*"))
		if len(tmps) == 0 {
			return nil, err // fresh store, not a rename in flight
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// StoreExists reports whether dir already holds a sweep manifest —
// i.e. opening it would continue (or collide with) an earlier sweep.
func StoreExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Close releases the manifest handle and the store lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.f != nil {
		err = s.f.Close()
		s.f = nil
	}
	if s.lock != nil {
		s.lock.Close() // closing the fd drops the flock
		s.lock = nil
	}
	return err
}

// Len returns the number of recorded entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Lookup returns the manifest entry for a job ID, if recorded.
func (s *Store) Lookup(id string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	return e, ok
}

// Result reconstructs a completed job's JobResult from its manifest
// entry, so folds over a resumed sweep see exactly what the original
// execution produced.
func (s *Store) Result(j Job) (JobResult, bool) {
	e, ok := s.Lookup(j.ID)
	if !ok {
		return JobResult{}, false
	}
	return resultOf(j, e), true
}

// resultOf rebuilds a JobResult from an entry's results around j, the
// caller's canonical Job: identity comes from j, never from the entry.
func resultOf(j Job, e *Entry) JobResult {
	res := JobResult{Job: j, TotalSeconds: e.TotalSeconds, Ledger: ledgerOf(e.Components)}
	res.Curve = &metrics.Curve{Scheme: j.Scheme, Points: make([]metrics.Point, len(e.Points))}
	for i, p := range e.Points {
		res.Curve.Points[i] = metrics.Point{
			Round: p.Round, LatencySeconds: p.LatencySeconds, Loss: p.Loss, Accuracy: p.Accuracy,
		}
	}
	return res
}

// entryOf flattens a result into its manifest record.
func entryOf(res JobResult) *Entry {
	e := &Entry{
		ID:           res.Job.ID,
		Name:         res.Job.Name,
		Scheme:       res.Job.Scheme,
		Rounds:       res.Job.Rounds,
		EvalEvery:    res.Job.EvalEvery,
		Seed:         res.Job.Spec.Seed,
		TotalSeconds: res.TotalSeconds,
		Components:   componentsOf(&res.Ledger),
		CurveFile:    filepath.Join(curvesDir, res.Job.ID+".csv"),
	}
	if res.Curve != nil {
		e.FinalAccuracy = res.Curve.FinalAccuracy()
		for _, p := range res.Curve.Points {
			e.Points = append(e.Points, Point{
				Round: p.Round, LatencySeconds: p.LatencySeconds, Loss: p.Loss, Accuracy: p.Accuracy,
			})
		}
		if n := len(res.Curve.Points); n > 0 {
			e.ElapsedSeconds = res.Curve.Points[n-1].LatencySeconds
		}
	}
	return e
}

// componentsOf encodes a ledger as the component-name map that
// manifest entries and progress sidecars carry (zero components are
// omitted); ledgerOf is its exact inverse.
func componentsOf(l *simnet.Ledger) map[string]float64 {
	m := map[string]float64{}
	for _, c := range simnet.Components() {
		if v := l.Get(c); v != 0 {
			m[c.String()] = v
		}
	}
	return m
}

func ledgerOf(m map[string]float64) simnet.Ledger {
	var l simnet.Ledger
	for _, c := range simnet.Components() {
		if v, ok := m[c.String()]; ok {
			l.Add(c, v)
		}
	}
	return l
}

// Record persists a completed job: its curve CSV, then its manifest
// line (synced, so a later crash cannot lose acknowledged work), then
// drops the job's transient checkpoint state.
func (s *Store) Record(res JobResult) error {
	e := entryOf(res)
	if err := trace.SaveCurvesCSV(filepath.Join(s.dir, e.CurveFile), []*metrics.Curve{res.Curve}); err != nil {
		return err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: encoding manifest entry: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("sweep: store is closed")
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: appending manifest entry: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("sweep: syncing manifest: %w", err)
	}
	s.entries[e.ID] = e
	s.dropTransientLocked(res.Job.ID)
	return nil
}

// CheckpointPath returns where the scheduler checkpoints an in-flight
// job.
func (s *Store) CheckpointPath(j Job) string {
	return filepath.Join(s.dir, ckptDir, j.ID+".ckpt")
}

func (s *Store) progressPath(id string) string {
	return filepath.Join(s.dir, ckptDir, id+".progress")
}

// SaveProgress atomically persists the sweep-side accumulators at a
// checkpoint boundary.
func (s *Store) SaveProgress(j Job, p Progress) error {
	buf, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("sweep: encoding progress: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, ckptDir), ".progress-*")
	if err != nil {
		return fmt.Errorf("sweep: creating progress file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: writing progress: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: writing progress: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.progressPath(j.ID)); err != nil {
		return fmt.Errorf("sweep: committing progress: %w", err)
	}
	return nil
}

// WriteCheckpoint atomically replaces the job's sim checkpoint with
// bytes received from elsewhere (a fleet worker's progress upload).
func (s *Store) WriteCheckpoint(j Job, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Join(s.dir, ckptDir), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("sweep: creating checkpoint file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.CheckpointPath(j)); err != nil {
		return fmt.Errorf("sweep: committing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint returns the job's sim checkpoint bytes (for handing a
// partially-executed job to a fleet worker), or ok=false when absent.
func (s *Store) ReadCheckpoint(j Job) ([]byte, bool) {
	data, err := os.ReadFile(s.CheckpointPath(j))
	if err != nil {
		return nil, false
	}
	return data, true
}

// ResumeOrDrop returns the job's progress sidecar when its stored
// checkpoint and sidecar pass the resume rule (resumable). Any other
// pair (or a lone file) is deleted, so the job reruns from scratch —
// never wrong, only slower. A job with neither file touches nothing.
func (s *Store) ResumeOrDrop(j Job) (Progress, bool) {
	var p Progress
	buf, err := os.ReadFile(s.progressPath(j.ID))
	if err == nil && json.Unmarshal(buf, &p) == nil && resumable(j, s.CheckpointPath(j), p) {
		return p, true
	}
	if errors.Is(err, fs.ErrNotExist) {
		if _, err := os.Stat(s.CheckpointPath(j)); errors.Is(err, fs.ErrNotExist) {
			return Progress{}, false
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropTransientLocked(j.ID)
	return Progress{}, false
}

// resumable is the resume rule: the checkpoint at ckpt and its progress
// sidecar p must name j's scheme and the same completed round, with
// rounds still left to run. The checkpoint is written before the
// sidecar, so a crash between the two writes leaves the sidecar one
// checkpoint behind, and seeding from it would corrupt the cumulative
// ledger.
func resumable(j Job, ckpt string, p Progress) bool {
	scheme, round, err := sim.PeekCheckpoint(ckpt)
	return err == nil && scheme == j.Scheme && round == p.Round && round < j.Rounds
}

func (s *Store) dropTransientLocked(id string) {
	os.Remove(filepath.Join(s.dir, ckptDir, id+".ckpt"))
	os.Remove(s.progressPath(id))
}

// timingEntry is one line of the transient timings sidecar.
type timingEntry struct {
	ID          string  `json:"id"`
	HostSeconds float64 `json:"host_seconds"`
}

// loadTimings reads the transient timings sidecar (best-effort: a
// corrupt or missing file just means no ETA seed).
func (s *Store) loadTimings() {
	data, err := os.Open(filepath.Join(s.dir, timingsName))
	if err != nil {
		return
	}
	defer data.Close()
	sc := bufio.NewScanner(data)
	for sc.Scan() {
		var t timingEntry
		if json.Unmarshal(sc.Bytes(), &t) == nil && t.ID != "" {
			s.timings[t.ID] = t.HostSeconds
		}
	}
}

// RecordTiming appends a job's real host wall-clock cost to the
// transient timings sidecar (see timingsName). Timing is advisory — a
// write failure costs ETA accuracy on the next resume, nothing else.
func (s *Store) RecordTiming(id string, hostSeconds float64) error {
	line, err := json.Marshal(timingEntry{ID: id, HostSeconds: hostSeconds})
	if err != nil {
		return fmt.Errorf("sweep: encoding timing: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, timingsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: opening timings: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: appending timing: %w", err)
	}
	s.timings[id] = hostSeconds
	return nil
}

// HostSecondsOf returns a completed job's recorded host wall-clock
// cost, when this store (or the killed run it resumes) measured one.
func (s *Store) HostSecondsOf(id string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.timings[id]
	return v, ok
}

// Compact rewrites the manifest with the given jobs' entries first, in
// job order, followed by any other recorded entries sorted by ID. A
// completed sweep therefore leaves a manifest whose bytes depend only
// on the grid — not on scheduling, concurrency, or how many times the
// sweep was killed and resumed. The rewrite is atomic.
func (s *Store) Compact(jobs []Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ordered []*Entry
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			continue
		}
		seen[j.ID] = true
		if e, ok := s.entries[j.ID]; ok {
			ordered = append(ordered, e)
		}
	}
	var extra []string
	for id := range s.entries {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		ordered = append(ordered, s.entries[id])
	}

	tmp, err := os.CreateTemp(s.dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("sweep: compacting manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for _, e := range ordered {
		line, err := json.Marshal(e)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("sweep: encoding manifest entry: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("sweep: writing manifest: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: writing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: writing manifest: %w", err)
	}
	path := filepath.Join(s.dir, manifestName)
	if s.f != nil {
		s.f.Close()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("sweep: committing manifest: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: reopening manifest: %w", err)
	}
	s.f = f
	// A compacted store is a completed sweep: drop the transient host
	// timings so the directory's bytes depend only on the grid.
	os.Remove(filepath.Join(s.dir, timingsName))
	s.timings = map[string]float64{}
	return nil
}
