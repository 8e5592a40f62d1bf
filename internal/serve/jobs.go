package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"memreliability/internal/obs"
	"memreliability/internal/sweep"
)

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ErrBusy reports a full sweep-job queue.
var ErrBusy = errors.New("serve: sweep queue full")

// ErrShuttingDown reports a server that no longer accepts work.
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrUnknownJob reports a job ID not in the store.
var ErrUnknownJob = errors.New("serve: unknown job")

// JobStatus is the client-visible state of one async sweep job. IDs are
// content-addressed (a hash of the spec's sweep.Spec.Identity), so
// resubmitting an identical spec lands on the same retained job — the
// store deduplicates sweeps exactly as the cache deduplicates estimates,
// for as long as the record survives the store's MaxJobs eviction.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CellsTotal and CellsDone report grid progress.
	CellsTotal int `json:"cells_total"`
	CellsDone  int `json:"cells_done"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// ArtifactVersion is the schema version the finished artifact is
	// encoded with (the /v1/sweeps artifact contract).
	ArtifactVersion int `json:"artifact_version"`
	// ArtifactPath is the fetch path for the finished artifact; set only
	// once the job is done.
	ArtifactPath string `json:"artifact_path,omitempty"`
}

// jobRecord is one stored job. Mutable fields are guarded by the owning
// store's mutex.
type jobRecord struct {
	id         string
	spec       sweep.Spec // the submitted spec's Identity
	state      string
	errMsg     string
	cellsTotal int
	cellsDone  int
	artifact   []byte // deterministic EncodeJSON bytes, set when done
}

// jobStore queues async sweep jobs behind a bounded worker pool, separate
// from the estimate path so long sweeps cannot starve cheap requests.
// The store holds at most maxJobs records: once full, each new
// submission evicts the oldest terminal job (with its retained artifact)
// — and is refused with ErrBusy when every record is still queued or
// running, so a long-running daemon's memory stays bounded.
// sweepRunner is the engine a job store executes sweeps on. The default
// is the in-process sweep.Run; coordinator mode substitutes the
// distributed cluster engine. Byte-identity is the contract either way.
type sweepRunner func(ctx context.Context, spec sweep.Spec, opts sweep.Options) (*sweep.Artifact, error)

type jobStore struct {
	workers     int
	cellWorkers int
	maxJobs     int
	runner      sweepRunner

	mu    sync.Mutex
	jobs  map[string]*jobRecord
	order []string // insertion order, oldest first, for eviction

	queue chan *jobRecord
	depth *obs.Gauge // queued-not-yet-running jobs
	wg    sync.WaitGroup
}

// newJobStore starts workers goroutines consuming the job queue. ctx
// bounds every job's compute; cancel it (and then drainAndWait) to shut
// the store down. depth is the queue-depth gauge, updated at every
// enqueue and pickup. A nil runner selects the in-process sweep engine.
func newJobStore(ctx context.Context, workers, cellWorkers, queueDepth, maxJobs int, depth *obs.Gauge, runner sweepRunner) *jobStore {
	if runner == nil {
		runner = sweep.Run
	}
	st := &jobStore{
		workers:     workers,
		cellWorkers: cellWorkers,
		maxJobs:     maxJobs,
		runner:      runner,
		jobs:        make(map[string]*jobRecord),
		queue:       make(chan *jobRecord, queueDepth),
		depth:       depth,
	}
	for i := 0; i < workers; i++ {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case j := <-st.queue:
					st.depth.Set(float64(len(st.queue)))
					st.run(ctx, j)
				}
			}
		}()
	}
	return st
}

// jobID derives the content address of a spec: the hash of the JSON
// encoding of its identity (sweep.Spec.Identity), which the artifact's
// spec echo also is — scheduling must not change a job's identity.
func jobID(spec sweep.Spec) (string, error) {
	data, err := json.Marshal(spec.Identity())
	if err != nil {
		return "", fmt.Errorf("serve: encode spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// Submit normalizes and validates the spec, then either enqueues a new
// job or returns the existing one with the same content address.
func (st *jobStore) Submit(ctx context.Context, spec sweep.Spec) (JobStatus, bool, error) {
	if err := spec.Normalized().Validate(); err != nil {
		return JobStatus{}, false, err
	}
	ident := spec.Identity()
	id, err := jobID(ident)
	if err != nil {
		return JobStatus{}, false, err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if j, ok := st.jobs[id]; ok {
		// The ID is a truncated hash; dedup only on a genuine spec
		// match, so a 64-bit collision surfaces as an error instead of
		// silently serving another spec's artifact.
		if !reflect.DeepEqual(j.spec, ident) {
			return JobStatus{}, false, fmt.Errorf("serve: job id collision on %q", id)
		}
		return st.statusLocked(j), false, nil
	}
	if ctx.Err() != nil {
		return JobStatus{}, false, ErrShuttingDown
	}
	// Refuse a full queue before evicting: eviction destroys a finished
	// artifact, which must not happen on a submission that is going to
	// be rejected anyway. Workers only drain the queue, so a non-full
	// queue here cannot fill before the send below.
	if cap(st.queue) > 0 && len(st.queue) == cap(st.queue) {
		return JobStatus{}, false, ErrBusy
	}
	if len(st.jobs) >= st.maxJobs && !st.evictOldestTerminalLocked() {
		return JobStatus{}, false, ErrBusy
	}
	j := &jobRecord{
		id:         id,
		spec:       ident,
		state:      StateQueued,
		cellsTotal: len(ident.Expand()),
	}
	select {
	case st.queue <- j:
		st.depth.Set(float64(len(st.queue)))
	default:
		return JobStatus{}, false, ErrBusy
	}
	st.jobs[id] = j
	st.order = append(st.order, id)
	return st.statusLocked(j), true, nil
}

// evictOldestTerminalLocked drops the oldest done/failed/canceled job to
// make room, reporting whether one existed; the store mutex must be
// held. Active jobs are never evicted.
func (st *jobStore) evictOldestTerminalLocked() bool {
	for i, id := range st.order {
		j := st.jobs[id]
		switch j.state {
		case StateDone, StateFailed, StateCanceled:
			delete(st.jobs, id)
			st.order = append(st.order[:i], st.order[i+1:]...)
			return true
		}
	}
	return false
}

// run executes one job to a terminal state.
func (st *jobStore) run(ctx context.Context, j *jobRecord) {
	st.mu.Lock()
	if j.state != StateQueued {
		st.mu.Unlock()
		return
	}
	j.state = StateRunning
	spec := j.spec
	st.mu.Unlock()

	spec.Workers = st.cellWorkers
	opts := sweep.Options{Sink: func(sweep.CellResult) {
		st.mu.Lock()
		j.cellsDone++
		st.mu.Unlock()
	}}
	art, err := st.runner(ctx, spec, opts)

	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			j.state = StateCanceled
		} else {
			j.state = StateFailed
		}
		j.errMsg = err.Error()
		return
	}
	var buf bytes.Buffer
	if err := art.EncodeJSON(&buf); err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		return
	}
	j.artifact = buf.Bytes()
	j.state = StateDone
}

// Status returns the current status of the job with the given ID.
func (st *jobStore) Status(id string) (JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return st.statusLocked(j), nil
}

// List returns every job's status in creation order, oldest first — the
// store's insertion log, so the listing is deterministic, stable across
// calls, and mirrors the eviction order. IDs are content hashes, so
// sorting by ID would interleave unrelated submissions arbitrarily.
func (st *jobStore) List() []JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]JobStatus, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.statusLocked(st.jobs[id]))
	}
	return out
}

// Artifact returns the finished artifact bytes for the job, or the job's
// status when it has not (or will never) come due.
func (st *jobStore) Artifact(id string) ([]byte, JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.artifact, st.statusLocked(j), nil
}

// statusLocked snapshots a record; the store mutex must be held.
func (st *jobStore) statusLocked(j *jobRecord) JobStatus {
	status := JobStatus{
		ID:              j.id,
		State:           j.state,
		CellsTotal:      j.cellsTotal,
		CellsDone:       j.cellsDone,
		Error:           j.errMsg,
		ArtifactVersion: sweep.ArtifactVersion,
	}
	if j.state == StateDone {
		status.ArtifactPath = "/v1/sweeps/" + j.id + "/artifact"
	}
	return status
}

// drainAndWait finishes shutdown after the store's context is canceled:
// it waits for the workers to exit, then marks every job that never ran
// as canceled (still-queued records also sit in the jobs map, so no
// channel drain is needed).
func (st *jobStore) drainAndWait() {
	st.wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, j := range st.jobs {
		if j.state == StateQueued {
			j.state = StateCanceled
			j.errMsg = ErrShuttingDown.Error()
		}
	}
}
