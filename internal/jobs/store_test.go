package jobs

import (
	"context"
	"os"
	"sync"
	"testing"

	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
	"intertubes/internal/scenario"
)

var (
	fixtureOnce sync.Once
	fixtureRes  *mapbuilder.Result
	fixtureMx   *risk.Matrix
)

func newEngine(t *testing.T, workers int) *scenario.Engine {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureRes = mapbuilder.Build(mapbuilder.Options{Seed: 42})
		fixtureMx = risk.Build(fixtureRes.Map, nil)
	})
	return scenario.New(fixtureRes, fixtureMx, scenario.Options{Seed: 42, Workers: workers})
}

func smallSpec() scenario.GridSpec {
	return scenario.GridSpec{CellKm: 500, RadiiKm: []float64{80}}
}

func TestJobLifecycleInMemory(t *testing.T) {
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Workers: 2, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total == 0 {
		t.Fatalf("submit returned %+v", st)
	}
	if st.BaselineVersion != eng.BaselineVersion() {
		t.Errorf("job pinned version %d, engine at %d", st.BaselineVersion, eng.BaselineVersion())
	}

	// Identical spec resubmission is idempotent (same deterministic ID,
	// no duplicate work).
	st2, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Errorf("resubmit created a second job: %s vs %s", st2.ID, st.ID)
	}

	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %s (%s), want done", final.State, final.Err)
	}
	if final.Completed != final.Total {
		t.Errorf("completed %d of %d", final.Completed, final.Total)
	}

	h, err := s.Heatmap(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h.Completed != final.Total || h.BaselineVersion != final.BaselineVersion {
		t.Errorf("heatmap %d cells v%d, want %d v%d",
			h.Completed, h.BaselineVersion, final.Total, final.BaselineVersion)
	}
	if _, err := h.GeoJSON(); err != nil {
		t.Fatal(err)
	}

	if list := s.List(); len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("List = %+v", list)
	}
	if _, err := s.Get("nope"); err != ErrNotFound {
		t.Errorf("Get(unknown) err = %v, want ErrNotFound", err)
	}
}

func TestJobInvalidSpecRejectedAtSubmit(t *testing.T) {
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(scenario.GridSpec{}); err == nil {
		t.Error("empty spec admitted")
	}
	if _, err := s.Submit(scenario.GridSpec{CellKm: 500, RadiiKm: []float64{80}, MaxCells: 1}); err == nil {
		t.Error("over-budget grid admitted")
	}
}

func TestJobCancelMidFlight(t *testing.T) {
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Workers: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Block job evaluations (only job evaluations — the context carries
	// the job ID) until the cancel lands; the job must terminate as
	// canceled, not done or failed.
	started := make(chan string, 1)
	eng.SetEvalHook(func(ctx context.Context) {
		if id, ok := JobIDFromContext(ctx); ok {
			select {
			case started <- id:
			default:
			}
			<-ctx.Done()
		}
	})
	defer eng.SetEvalHook(nil)

	st, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	id := <-started
	if id != st.ID {
		t.Fatalf("hook saw job %s, submitted %s", id, st.ID)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", final.State, final.Err)
	}
	// Canceling a terminal job stays terminal.
	again, err := s.Cancel(st.ID)
	if err != nil || again.State != StateCanceled {
		t.Errorf("re-cancel: %+v, %v", again, err)
	}
}

func TestJobStreamDeliversChunksAndClose(t *testing.T) {
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Workers: 2, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, detach, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer detach()

	got := 0
	var last Event
	for ev := range ch {
		if ev.JobID != st.ID {
			t.Errorf("event for %s on %s's stream", ev.JobID, st.ID)
		}
		got += len(ev.Cells)
		last = ev
	}
	final, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Err)
	}
	// The stream is lossy under backpressure by design, but an
	// unblocked local subscriber sees every chunk plus the terminal
	// state event.
	if got != final.Total {
		t.Errorf("streamed %d cells, job completed %d", got, final.Total)
	}
	if !last.State.terminal() {
		t.Errorf("last streamed event state %s, want terminal", last.State)
	}

	// Late subscription to a finished job closes immediately after a
	// snapshot rather than hanging.
	ch2, detach2, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer detach2()
	saw := false
	for ev := range ch2 {
		saw = ev.State == StateDone || saw
	}
	if !saw {
		t.Error("late subscriber never saw the terminal snapshot")
	}
}

func TestJobQueueBoundAndRetry(t *testing.T) {
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Workers: 1, MaxQueue: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Park the runner so submissions pile up in the queue.
	release := make(chan struct{})
	eng.SetEvalHook(func(ctx context.Context) {
		if _, ok := JobIDFromContext(ctx); ok {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	})
	defer eng.SetEvalHook(nil)

	if _, err := s.Submit(smallSpec()); err != nil {
		t.Fatal(err)
	}
	// The first job may still be queued or already running; either way a
	// second distinct spec lands in the queue, and a third must shed.
	if _, err := s.Submit(scenario.GridSpec{CellKm: 500, RadiiKm: []float64{120}}); err != nil && err != ErrQueueFull {
		t.Fatal(err)
	}
	_, err3 := s.Submit(scenario.GridSpec{CellKm: 500, RadiiKm: []float64{160}})
	_, err4 := s.Submit(scenario.GridSpec{CellKm: 500, RadiiKm: []float64{200}})
	if err3 != ErrQueueFull && err4 != ErrQueueFull {
		t.Errorf("queue never filled: %v, %v", err3, err4)
	}
	close(release)
}

// TestTerminalCheckpointDurableBeforeWait pins the ordering contract
// of terminal transitions: the moment Wait reports a terminal state,
// the checkpoint on disk already carries it — for jobs that finish, a
// job canceled mid-flight, and a queued job canceled before it ran.
func TestTerminalCheckpointDurableBeforeWait(t *testing.T) {
	dir := t.TempDir()
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Dir: dir, Workers: 1, CheckpointEvery: 2, MaxQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	checkpointState := func(id string) (State, int) {
		t.Helper()
		path, err := checkpointPath(dir, id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		return cp.State, len(cp.Cells)
	}

	for _, radius := range []float64{60, 80, 100, 120} {
		st, err := s.Submit(scenario.GridSpec{CellKm: 900, RadiiKm: []float64{radius}})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := s.Wait(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone {
			t.Fatalf("job ended %s (%s)", fin.State, fin.Err)
		}
		if state, cells := checkpointState(st.ID); state != StateDone || cells != fin.Total {
			t.Errorf("radius %v: checkpoint right after Wait: state %s, %d/%d cells", radius, state, cells, fin.Total)
		}
	}

	// A running job canceled mid-flight, and a queued job canceled
	// before it ever ran.
	started := make(chan struct{}, 1)
	eng.SetEvalHook(func(ctx context.Context) {
		if _, ok := JobIDFromContext(ctx); ok {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
		}
	})
	defer eng.SetEvalHook(nil)
	running, err := s.Submit(scenario.GridSpec{CellKm: 900, RadiiKm: []float64{140}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(scenario.GridSpec{CellKm: 900, RadiiKm: []float64{160}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		fin, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateCanceled {
			t.Fatalf("job %s ended %s (%s), want canceled", id, fin.State, fin.Err)
		}
		if state, _ := checkpointState(id); state != StateCanceled {
			t.Errorf("job %s: checkpoint right after Wait on a canceled job: state %s", id, state)
		}
	}
}

// TestCloseCheckpointsQueuedJobs: a job still queued when the store
// closes has never run, so only Close can write its checkpoint. Both it
// and the parked running job must come back after a restart.
func TestCloseCheckpointsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Dir: dir, Workers: 1, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	eng.SetEvalHook(func(ctx context.Context) {
		if _, ok := JobIDFromContext(ctx); ok {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
		}
	})
	defer eng.SetEvalHook(nil)
	running, err := s.Submit(scenario.GridSpec{CellKm: 900, RadiiKm: []float64{100}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(scenario.GridSpec{CellKm: 900, RadiiKm: []float64{120}})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := NewStore(eng, Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{running.ID, queued.ID} {
		st, err := s2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across restart: %v", id, err)
		}
		if st.State.terminal() {
			t.Errorf("job %s recovered as %s, want resumable", id, st.State)
		}
	}
}
