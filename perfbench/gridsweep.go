package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"intertubes"
	"intertubes/internal/jobs"
	"intertubes/internal/scenario"
)

// gridsweep times disaster-grid sweep jobs through a checkpointing
// jobs.Store: Submit, Wait, then the GeoJSON heatmap read.
type gridsweep struct {
	seed    int64
	workers int
	dir     string // checkpoint directory of the current set-up
	tmp     string // parent of every set-up's checkpoint directory
	setups  int
	grids   []gridOp
	study   *intertubes.Study
	store   *jobs.Store

	gaps       []float64 // ms between consecutive progress events
	ckptBytes  []float64
	identityOK bool // one job's GeoJSON matched a direct sweep
}

// gridsweepOps is the op list length; a run times at least minOps of it.
const gridsweepOps = 40

func newGridsweep(seed int64, workers int, tmp string) *gridsweep {
	return &gridsweep{seed: seed, workers: workers, tmp: tmp}
}

func (g *gridsweep) minOps(bool) int      { return 20 }
func (g *gridsweep) classOrder() []string { return []string{"grid"} }

func (g *gridsweep) ops() []string {
	out := make([]string, len(g.grids))
	for i, op := range g.grids {
		out[i] = op.line()
	}
	return out
}

// setup builds the study, opens a store over a fresh checkpoint
// directory, and runs one evaluation so the baseline memos exist.
func (g *gridsweep) setup(tr *tracer) error {
	g.close()
	sp := tr.begin("mapbuilder.build", -1)
	g.study = intertubes.NewStudy(intertubes.Options{Seed: servedStudySeed, Workers: g.workers})
	tr.end(sp)
	replayValidate(g.study.Result(), -1, tr)
	eng := g.study.Scenarios().Engine()
	g.dir = filepath.Join(g.tmp, fmt.Sprintf("ckpt-%d-%d", os.Getpid(), g.setups))
	g.setups++
	if err := os.MkdirAll(g.dir, 0o755); err != nil {
		return err
	}
	sp = tr.begin("jobs.new_store", -1)
	store, err := jobs.NewStore(eng, jobs.Options{Dir: g.dir, Workers: g.workers})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("jobs.NewStore: %w", err)
	}
	g.store = store
	sp = tr.begin("scenario.warm", -1)
	_, err = eng.Evaluate(context.Background(), scenario.Scenario{
		Name: "bench-warm", Regions: []scenario.Region{{Lat: 39.74, Lon: -104.99, RadiusKm: 100}},
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("warm evaluation: %w", err)
	}
	if g.grids == nil {
		if g.grids, err = gridOps(g.seed, g.study.Map(), gridsweepOps); err != nil {
			return err
		}
	}
	g.gaps, g.ckptBytes, g.identityOK = nil, nil, false
	return nil
}

func (g *gridsweep) run(i int, tr *tracer) sample {
	op := g.grids[i]
	s := sample{class: "grid", work: float64(op.Cells)}
	var events []time.Time
	drained := make(chan struct{})
	start := time.Now()
	root := tr.begin("op", i)
	sp := tr.begin("jobs", i)
	st, err := g.store.Submit(op.Spec)
	if err != nil {
		tr.end(sp)
		tr.end(root)
		s.ms, s.fail = msSince(start), fmt.Sprintf("Submit: %v", err)
		return s
	}
	submitted := time.Now()
	ch, cancel, err := g.store.Subscribe(st.ID)
	if err != nil {
		close(drained)
	} else {
		defer cancel()
		go func() {
			defer close(drained)
			for ev := range ch {
				if len(ev.Cells) > 0 {
					events = append(events, time.Now())
				}
			}
		}()
	}
	fin, werr := g.store.Wait(st.ID)
	tr.end(sp)
	rs := tr.begin("jobs.result", i)
	var gj []byte
	hm, herr := g.store.Heatmap(st.ID)
	if herr == nil {
		gj, herr = hm.GeoJSON()
	}
	tr.end(rs)
	tr.end(root)
	s.ms = msSince(start)
	// The subscription closes once the terminal checkpoint is written.
	<-drained

	sum := sha256.Sum256(gj)
	s.out = hex.EncodeToString(sum[:8])
	switch {
	case err != nil:
		s.fail = fmt.Sprintf("Subscribe: %v", err)
	case werr != nil:
		s.fail = fmt.Sprintf("Wait: %v", werr)
	case herr != nil:
		s.fail = fmt.Sprintf("heatmap: %v", herr)
	case fin.State != jobs.StateDone:
		s.fail = fmt.Sprintf("job ended %s: %s", fin.State, fin.Err)
	case fin.Total != op.Cells || fin.Completed != op.Cells:
		s.fail = fmt.Sprintf("job completed %d of %d cells; the plan has %d", fin.Completed, fin.Total, op.Cells)
	}
	if s.fail != "" {
		return s
	}
	prev := submitted
	for _, t := range events {
		g.gaps = append(g.gaps, float64(t.Sub(prev))/float64(time.Millisecond))
		prev = t
	}
	if s.fail = g.checkCheckpoint(st.ID, op.Cells); s.fail != "" {
		return s
	}
	// One direct sweep per pass checks the job's artifact; traced, every
	// op is replayed to split the job's time.
	if tr != nil || !g.identityOK {
		s.fail = g.direct(op, i, sp, gj, tr)
		g.identityOK = s.fail == ""
	}
	return s
}

// checkCheckpoint reads the job's terminal checkpoint and removes it.
func (g *gridsweep) checkCheckpoint(id string, cells int) string {
	path := filepath.Join(g.dir, id+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("checkpoint: %v", err)
	}
	cp, err := jobs.DecodeCheckpoint(raw)
	if err != nil {
		return fmt.Sprintf("checkpoint: %v", err)
	}
	if cp.State != jobs.StateDone || len(cp.Cells) != cells {
		return fmt.Sprintf("checkpoint holds state %s with %d of %d cells", cp.State, len(cp.Cells), cells)
	}
	g.ckptBytes = append(g.ckptBytes, float64(len(raw)))
	if err := os.Remove(path); err != nil {
		return fmt.Sprintf("checkpoint: %v", err)
	}
	return ""
}

// direct plans and sweeps the spec without the store and renders the
// heatmap the same way; its GeoJSON must equal the job's byte for byte.
func (g *gridsweep) direct(op gridOp, i, within int, jobGeoJSON []byte, tr *tracer) string {
	eng := g.study.Scenarios().Engine()
	sp := tr.replay("scenario.plan", i, -1)
	plan, version, err := eng.PlanGrid(op.Spec)
	tr.end(sp)
	if err != nil {
		return fmt.Sprintf("PlanGrid: %v", err)
	}
	scs := make([]scenario.Scenario, len(plan.Cells))
	for k, c := range plan.Cells {
		scs[k] = c.Scenario()
	}
	sp = tr.replay("scenario.sweep", i, within)
	outs := scenario.Sweep(context.Background(), eng, scs, g.workers)
	tr.count(sp, float64(len(outs)))
	tr.end(sp)
	cells := make([]scenario.CellOutcome, len(outs))
	for k, o := range outs {
		if o.Err != "" || o.Canceled {
			return fmt.Sprintf("direct sweep cell %d failed: %s", k, o.Err)
		}
		cells[k] = scenario.ReduceCell(plan.Cells[k], o)
	}
	gj, err := scenario.BuildHeatmap(plan.Geom(), version, cells).GeoJSON()
	if err != nil {
		return fmt.Sprintf("direct heatmap: %v", err)
	}
	if !bytes.Equal(gj, jobGeoJSON) {
		return "job GeoJSON differs from a direct Sweep, ReduceCell and BuildHeatmap of the same plan"
	}
	return ""
}

func (g *gridsweep) finish(p *pass) []string {
	if !g.identityOK {
		return []string{"no job's GeoJSON was checked against a direct sweep"}
	}
	return nil
}

func (g *gridsweep) extras() map[string]float64 {
	return map[string]float64{"jobs.batch_ms": mean(g.gaps), "jobs.checkpoint_bytes": mean(g.ckptBytes)}
}

func (g *gridsweep) close() {
	if g.store != nil {
		g.store.Close()
		g.store, g.study = nil, nil
	}
	if g.dir != "" {
		os.RemoveAll(g.dir)
		g.dir = ""
	}
}
