// Package jobs is the batch-analysis subsystem: a job store for
// long-running sweeps that owns lifecycle (pending → running →
// done/failed/canceled), persists periodic checkpoints so a restarted
// process resumes mid-sweep, and streams partial results to
// subscribers. Its first (and so far only) workload is the exhaustive
// disaster-grid sweep: every cell of a scenario.GridPlan evaluated
// through scenario.Sweep's ordered-reduce contract, which is what
// makes a resumed job's final artifact byte-identical to an
// uninterrupted run at any worker count.
//
// Admission control is structural: one runner goroutine executes jobs
// strictly one at a time, so a heavyweight sweep can never occupy more
// than its configured worker count while interactive scenario requests
// keep their own admission lane in internal/server.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"intertubes/internal/obs"
	"intertubes/internal/scenario"
)

// ErrShutdown is the cancel cause a closing store injects into the
// running job's context. The runner uses it to park the job as
// resumable (checkpointed, state pending) instead of marking it
// canceled — the distinction between "the process is going away" and
// "a user killed this job".
var ErrShutdown = errors.New("jobs: store shutting down")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrQueueFull reports that admission control rejected a new sweep.
var ErrQueueFull = errors.New("jobs: queue full")

// errJobCanceled is the cancel cause of a user-initiated Cancel.
var errJobCanceled = errors.New("jobs: job canceled")

var (
	queueDepth = obs.GetGauge("jobs_queue_depth",
		"Sweep jobs admitted but not yet running.")
	jobsRunning = obs.GetGauge("jobs_running",
		"Sweep jobs currently executing (0 or 1; the runner is serial).")
	cellsCompleted = obs.GetCounter("jobs_cells_completed_total",
		"Grid cells evaluated (or recovered from checkpoint) across all jobs.")
)

// stateGauges carries one jobs_by_state{state=...} gauge per lifecycle
// state, surfaced on /metrics and GET /api/stats.
var stateGauges = func() map[State]*obs.Gauge {
	m := make(map[State]*obs.Gauge)
	for _, st := range []State{StatePending, StateRunning, StateDone, StateFailed, StateCanceled} {
		m[st] = obs.GetGauge("jobs_by_state",
			"Sweep jobs per lifecycle state.", obs.L("state", string(st)))
	}
	return m
}()

// Options configures a Store.
type Options struct {
	// Dir persists one checkpoint file per job; empty runs the store
	// in-memory only (no resume across restarts).
	Dir string
	// Workers is the scenario.Sweep worker count per batch (<= 0: all
	// CPUs).
	Workers int
	// CheckpointEvery is the batch size in cells between checkpoint
	// writes and stream chunks. Default 64.
	CheckpointEvery int
	// MaxQueue bounds the pending-job queue; Submit fails with
	// ErrQueueFull beyond it. Default 8.
	MaxQueue int
}

// Store owns every job. One Store runs per process; create it with
// NewStore and release it with Close.
type Store struct {
	eng  *scenario.Engine
	opts Options

	ctx  context.Context
	stop context.CancelCauseFunc
	wake chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	order  []string // creation order, for stable listings
	queue  []string // pending job IDs, FIFO
	closed bool
}

// NewStore builds the store, recovers any resumable checkpoints from
// opts.Dir, and starts the runner goroutine.
func NewStore(eng *scenario.Engine, opts Options) (*Store, error) {
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 64
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 8
	}
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Store{
		eng:  eng,
		opts: opts,
		ctx:  ctx,
		stop: stop,
		wake: make(chan struct{}, 1),
		jobs: make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	if opts.Dir != "" {
		if err := s.recover(); err != nil {
			stop(ErrShutdown)
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.run()
	return s, nil
}

// recover loads checkpoints from disk: terminal jobs become queryable
// records (their artifacts still render), pending/running ones are
// re-queued to resume from their completed-cell set.
func (s *Store) recover() error {
	cps, skipped, err := readCheckpoints(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("jobs: recover: %w", err)
	}
	for _, name := range skipped {
		obs.Logger("jobs").Warn("skipping unreadable checkpoint", "file", name)
	}
	// Deterministic recovery order regardless of directory iteration.
	sort.Slice(cps, func(i, j int) bool { return cps[i].ID < cps[j].ID })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cp := range cps {
		j := &job{
			id:              cp.ID,
			geom:            cp.Geom,
			baselineVersion: cp.BaselineVersion,
			state:           cp.State,
			err:             cp.Err,
			cells:           make(map[int]scenario.CellOutcome, len(cp.Cells)),
			resumed:         len(cp.Cells),
			created:         time.Now(),
		}
		for _, c := range cp.Cells {
			j.cells[c.Index] = c
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if !cp.State.terminal() {
			j.state = StatePending
			s.queue = append(s.queue, j.id)
			obs.Logger("jobs").Info("resuming checkpointed sweep",
				"job", j.id, "completed", len(j.cells), "total", j.geom.Total)
		}
	}
	s.updateGaugesLocked()
	return nil
}

// Submit admits a grid sweep. Identity is deterministic — the spec's
// content hash plus the engine's current baseline version — so
// resubmitting an identical sweep returns the existing job instead of
// duplicating work; a terminal failed/canceled job is re-queued
// (keeping its completed cells) as the retry path.
func (s *Store) Submit(spec scenario.GridSpec) (Status, error) {
	plan, version, err := s.eng.PlanGrid(spec)
	if err != nil {
		return Status{}, err
	}
	id := fmt.Sprintf("sweep-%s-v%d", plan.Hash[:12], version)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Status{}, ErrShutdown
	}
	if j, ok := s.jobs[id]; ok {
		if j.state == StateFailed || j.state == StateCanceled {
			j.state = StatePending
			j.err = ""
			j.finished = time.Time{}
			j.canceled = false
			s.queue = append(s.queue, j.id)
			s.updateGaugesLocked()
			s.kick()
		}
		return j.status(), nil
	}
	if len(s.queue) >= s.opts.MaxQueue {
		return Status{}, ErrQueueFull
	}
	j := &job{
		id:              id,
		geom:            plan.Geom(),
		baselineVersion: version,
		state:           StatePending,
		cells:           make(map[int]scenario.CellOutcome),
		created:         time.Now(),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.updateGaugesLocked()
	s.kick()
	return j.status(), nil
}

// kick nudges the runner; callers hold s.mu.
func (s *Store) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// StoreStats is the admission snapshot surfaced on GET /api/stats.
type StoreStats struct {
	QueueDepth int           `json:"queueDepth"`
	Running    int           `json:"running"`
	ByState    map[State]int `json:"byState"`
}

// Stats reports queue depth and per-state job counts; the same values
// feed the jobs_queue_depth and jobs_by_state gauges.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{QueueDepth: len(s.queue), ByState: make(map[State]int)}
	for _, j := range s.jobs {
		st.ByState[j.state]++
	}
	st.Running = st.ByState[StateRunning]
	return st
}

// List returns every job's status in creation order.
func (s *Store) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Get returns one job's status.
func (s *Store) Get(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// Heatmap assembles the job's current artifact from its completed
// cells — partial while running, final once done. Deterministic:
// equal cell sets render byte-identically regardless of evaluation
// order, interruptions, or worker count.
func (s *Store) Heatmap(id string) (*scenario.Heatmap, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	geom, version := j.geom, j.baselineVersion
	cells := make([]scenario.CellOutcome, 0, len(j.cells))
	for _, c := range j.cells {
		cells = append(cells, c)
	}
	s.mu.Unlock()
	return scenario.BuildHeatmap(geom, version, cells), nil
}

// Subscribe attaches a streaming listener to the job. The channel
// closes when the job reaches a terminal state (or the store shuts
// down); call the returned func to detach early.
func (s *Store) Subscribe(id string) (<-chan Event, func(), error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	s.mu.Unlock()
	ch, cancel := j.subscribe()
	// Re-check terminality after registering: if the job finished (or
	// finishes) around the registration, deliver one closing snapshot
	// and close, so late subscribers never hang on events that already
	// fired.
	s.mu.Lock()
	terminal := j.state.terminal()
	s.mu.Unlock()
	if terminal {
		j.publish(s.snapshotEvent(j))
		j.closeSubs()
	}
	return ch, cancel, nil
}

func (s *Store) snapshotEvent(j *job) Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Event{JobID: j.id, State: j.state, Err: j.err,
		Total: j.geom.Total, Completed: len(j.cells)}
}

// Cancel terminally cancels a job. Pending jobs cancel immediately,
// through the same terminal transition as a finished run (checkpoint
// first, then state and streams); the running job's context is torn
// down with errJobCanceled and the runner persists the terminal
// state. Canceling a terminal job is a no-op.
func (s *Store) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, ErrNotFound
	}
	if j.state.terminal() {
		st := j.status()
		s.mu.Unlock()
		return st, nil
	}
	j.canceled = true
	if j.state == StatePending {
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		s.terminate(j, StateCanceled, "canceled before start")
		return s.Get(id)
	}
	cancel := j.cancel
	st := j.status()
	s.mu.Unlock()
	if cancel != nil {
		cancel(errJobCanceled)
	}
	return st, nil
}

// Wait blocks until the job reaches a terminal state or the store
// closes, and returns its latest status.
func (s *Store) Wait(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		j, ok := s.jobs[id]
		if !ok {
			return Status{}, ErrNotFound
		}
		if j.state.terminal() || s.closed {
			return j.status(), nil
		}
		s.cond.Wait()
	}
}

// Close stops the runner. A running job is interrupted with
// ErrShutdown, checkpointed at the last completed batch, and left
// pending on disk for the next process to resume.
func (s *Store) Close() {
	s.stop(ErrShutdown)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.kick()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	// A queued job has no checkpoint until the runner starts it (Submit
	// writes none, keeping admission free of file writes): write it
	// pending now so the next process resumes it. The writes hold s.mu,
	// so a Cancel racing with Close either takes the job out of the
	// queue first or writes its terminal checkpoint after this one.
	if s.opts.Dir != "" {
		for _, id := range s.queue {
			s.write(s.checkpointLocked(s.jobs[id], "", ""))
		}
	}
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.closeSubs()
	}
}

// updateGaugesLocked recomputes the observable state counts; callers
// hold s.mu. Job counts are small (bounded by MaxQueue plus history),
// so a full recount per transition is cheaper than bookkeeping.
func (s *Store) updateGaugesLocked() {
	counts := make(map[State]int, len(stateGauges))
	for _, j := range s.jobs {
		counts[j.state]++
	}
	for st, g := range stateGauges {
		g.Set(float64(counts[st]))
	}
	queueDepth.Set(float64(len(s.queue)))
	jobsRunning.Set(float64(counts[StateRunning]))
}

// finishLocked records a terminal transition; callers hold s.mu and
// are responsible for persistence and subscriber teardown afterwards.
func (s *Store) finishLocked(j *job, st State, errText string) {
	j.state = st
	j.err = errText
	j.finished = time.Now()
	s.updateGaugesLocked()
	s.cond.Broadcast()
}

// run is the serial job runner.
func (s *Store) run() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.mu.Unlock()
			select {
			case <-s.wake:
			case <-s.ctx.Done():
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one sweep: plan, evaluate missing cells in
// checkpoint-sized batches, persist and stream after each batch.
func (s *Store) runJob(j *job) {
	plan, version, err := s.eng.PlanGrid(j.geom.Spec)
	if err != nil {
		s.terminate(j, StateFailed, fmt.Sprintf("plan: %v", err))
		return
	}

	s.mu.Lock()
	if j.canceled {
		s.mu.Unlock()
		s.terminate(j, StateCanceled, "canceled before start")
		return
	}
	if version != j.baselineVersion || plan.Total() != j.geom.Total {
		// The baseline moved between checkpoint and resume (or between
		// submit and start): completed cells belong to a different map
		// and would poison the artifact. Start over against the new
		// baseline.
		obs.Logger("jobs").Info("baseline changed, discarding checkpointed cells",
			"job", j.id, "was_version", j.baselineVersion, "now_version", version)
		j.cells = make(map[int]scenario.CellOutcome)
		j.resumed = 0
		j.baselineVersion = version
		j.geom = plan.Geom()
	}
	ctx, cancel := context.WithCancelCause(
		context.WithValue(s.ctx, jobIDKey{}, j.id))
	defer cancel(nil)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	s.updateGaugesLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.persist(j)
	j.publish(s.snapshotEvent(j))
	obs.Logger("jobs").Info("sweep started", "job", j.id,
		"total", plan.Total(), "resumed", j.resumed, "workers", s.opts.Workers)

	for {
		// Collect the next batch of cells with no completed outcome, in
		// plan order. Plan order + pure per-cell evaluation is the whole
		// determinism story: batch boundaries, interruptions, and worker
		// counts cannot change any cell's outcome, only when it lands.
		s.mu.Lock()
		batch := make([]scenario.GridCell, 0, s.opts.CheckpointEvery)
		for _, c := range plan.Cells {
			if _, done := j.cells[c.Index]; !done {
				batch = append(batch, c)
				if len(batch) == s.opts.CheckpointEvery {
					break
				}
			}
		}
		s.mu.Unlock()
		if len(batch) == 0 {
			s.terminate(j, StateDone, "")
			return
		}

		if v := s.eng.BaselineVersion(); v != j.baselineVersion {
			s.terminate(j, StateFailed,
				fmt.Sprintf("baseline swapped mid-sweep (v%d -> v%d)", j.baselineVersion, v))
			return
		}
		scs := make([]scenario.Scenario, len(batch))
		for i, c := range batch {
			scs[i] = c.Scenario()
		}
		outs := scenario.Sweep(ctx, s.eng, scs, s.opts.Workers)

		interrupted := false
		fresh := make([]scenario.CellOutcome, 0, len(outs))
		for i, o := range outs {
			if o.Canceled {
				// Never ran (or was stopped mid-flight): not an outcome.
				// The machine-readable marker is what lets resume re-run
				// exactly these slots and checkpoint the rest.
				interrupted = true
				continue
			}
			fresh = append(fresh, scenario.ReduceCell(batch[i], o))
		}
		s.mu.Lock()
		for _, c := range fresh {
			j.cells[c.Index] = c
		}
		completed := len(j.cells)
		s.mu.Unlock()
		cellsCompleted.Add(int64(len(fresh)))
		s.persist(j)
		if len(fresh) > 0 {
			j.publish(Event{JobID: j.id, State: StateRunning,
				Total: j.geom.Total, Completed: completed, Cells: fresh})
		}

		if interrupted {
			cause := context.Cause(ctx)
			if errors.Is(cause, ErrShutdown) || (cause == nil && s.ctx.Err() != nil) {
				// Process shutdown: park resumable. The checkpoint just
				// written carries every completed cell; the in-memory
				// state returns to pending so List reflects reality.
				s.mu.Lock()
				j.state = StatePending
				s.updateGaugesLocked()
				s.cond.Broadcast()
				s.mu.Unlock()
				s.persist(j)
				obs.Logger("jobs").Info("sweep parked for shutdown",
					"job", j.id, "completed", completed, "total", j.geom.Total)
				return
			}
			s.terminate(j, StateCanceled, "canceled")
			return
		}
	}
}

// terminate writes the terminal checkpoint, then finishes the job and
// tears down subscribers. The order is the contract: once Wait, Get or
// a stream reports the terminal state, the checkpoint on disk carries
// it too.
func (s *Store) terminate(j *job, st State, errText string) {
	s.persistAs(j, st, errText)
	s.mu.Lock()
	s.finishLocked(j, st, errText)
	s.mu.Unlock()
	j.publish(s.snapshotEvent(j))
	j.closeSubs()
	obs.Logger("jobs").Info("sweep finished", "job", j.id, "state", string(st), "err", errText)
}

// persist writes the job's checkpoint, in its current state, if the
// store has a directory.
func (s *Store) persist(j *job) { s.persistAs(j, "", "") }

// persistAs writes the job's checkpoint if the store has a directory.
// A non-empty st replaces the job's recorded state and error in the
// checkpoint, so a terminal transition is durable before it is
// published.
func (s *Store) persistAs(j *job, st State, errText string) {
	if s.opts.Dir == "" {
		return
	}
	s.mu.Lock()
	cp := s.checkpointLocked(j, st, errText)
	s.mu.Unlock()
	s.write(cp)
}

// checkpointLocked snapshots the job as a checkpoint, in state st (the
// job's own state when st is empty); callers hold s.mu.
func (s *Store) checkpointLocked(j *job, st State, errText string) *Checkpoint {
	if st == "" {
		st, errText = j.state, j.err
	}
	cp := &Checkpoint{
		V:               checkpointVersion,
		ID:              j.id,
		Geom:            j.geom,
		BaselineVersion: j.baselineVersion,
		State:           st,
		Err:             errText,
		Cells:           make([]scenario.CellOutcome, 0, len(j.cells)),
	}
	for _, c := range j.cells {
		cp.Cells = append(cp.Cells, c)
	}
	// Plan-order cells keep checkpoint bytes deterministic for a given
	// completed set, which makes the files diffable and testable.
	sort.Slice(cp.Cells, func(a, b int) bool { return cp.Cells[a].Index < cp.Cells[b].Index })
	return cp
}

// write stores cp in the checkpoint directory.
func (s *Store) write(cp *Checkpoint) {
	if err := writeCheckpoint(s.opts.Dir, cp); err != nil {
		obs.Logger("jobs").Error("checkpoint write failed", "job", cp.ID, "err", err)
	}
}
