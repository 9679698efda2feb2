package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"intertubes"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/records"
)

// coldstart times the CLI's path from a seed to every paper artifact:
// intertubes.NewStudy followed by RenderAll, each op on a fresh seed.
// Set-up is one warm-up map build (NewStudy on a seed outside the op
// list), which pays the process's one-time costs; a full warm-up op would
// add a second to every set-up and tell nothing more.
type coldstart struct {
	seed    int64
	workers int
	seeds   []int64
	warmups int
}

// coldstartOps is the op list length; a run times at least minOps of it.
const coldstartOps = 60

func newColdstart(seed int64, workers int) *coldstart {
	return &coldstart{seed: seed, workers: workers, seeds: coldstartSeeds(seed, coldstartOps)}
}

func (c *coldstart) minOps(bool) int      { return 20 }
func (c *coldstart) classOrder() []string { return []string{"study"} }

func (c *coldstart) ops() []string {
	out := make([]string, len(c.seeds))
	for i, s := range c.seeds {
		out[i] = fmt.Sprintf("study seed=%d probes=%d", s, coldstartProbes)
	}
	return out
}

func (c *coldstart) setup(tr *tracer) error {
	seed := studySeed(c.seed, "coldstart-warmup", c.warmups)
	c.warmups++
	sp := tr.begin("mapbuilder.build", -1)
	intertubes.NewStudy(intertubes.Options{Seed: seed, Probes: coldstartProbes, Workers: c.workers})
	tr.end(sp)
	return nil
}

// run builds study i and renders every artifact. Traced, it first calls
// each memoized stage RenderAll needs, inside its own span, so RenderAll's
// span holds only the rendering.
func (c *coldstart) run(i int, tr *tracer) sample {
	opts := intertubes.Options{Seed: c.seeds[i], Probes: coldstartProbes, Workers: c.workers}
	start := time.Now()
	root := tr.begin("op", i)
	sp := tr.begin("mapbuilder.build", i)
	st := intertubes.NewStudy(opts)
	tr.end(sp)
	if tr != nil {
		sp = tr.begin("traceroute.campaign", i)
		camp := st.Campaign()
		tr.count(sp, float64(camp.Total))
		tr.end(sp)
		sp = tr.begin("geo.colocation", i)
		st.Colocation()
		tr.end(sp)
		sp = tr.begin("mitigate.robustness", i)
		st.Robustness()
		tr.end(sp)
		sp = tr.begin("mitigate.additions", i)
		st.Additions()
		tr.end(sp)
		sp = tr.begin("mitigate.latency_study", i)
		st.Latency()
		tr.end(sp)
	}
	sp = tr.begin("report.render", i)
	out := st.RenderAll()
	tr.end(sp)
	tr.end(root)
	s := sample{class: "study", ms: msSince(start), work: 1}

	sum := sha256.Sum256([]byte(out))
	s.out = hex.EncodeToString(sum[:8])
	if s.fail = checkArtifacts(out); s.fail != "" {
		return s
	}
	rep := st.Result().Report
	if calls, validated := replayValidate(st.Result(), i, tr); tr != nil && (calls != rep.Step2Checked || validated != rep.Step2Validated) {
		s.fail = fmt.Sprintf("step-2 replay: %d/%d validated, build reported %d/%d",
			validated, calls, rep.Step2Validated, rep.Step2Checked)
		return s
	}
	s.fail = c.replayAtlas(st, i, tr)
	return s
}

// replayAtlas times the all-pairs latency atlas on the op's own map,
// as a replay outside the op: RenderAll reaches the atlas's
// source-batched kernel only inside the latency study's row.
func (c *coldstart) replayAtlas(st *intertubes.Study, op int, tr *tracer) string {
	if tr == nil {
		return ""
	}
	sp := tr.replay("latency.atlas", op, -1)
	at, err := latency.Build(context.Background(), st.Map(), latency.Options{Workers: c.workers})
	if err == nil {
		tr.count(sp, float64(at.NumSources()))
	}
	tr.end(sp)
	if err != nil {
		return fmt.Sprintf("latency atlas: %v", err)
	}
	return ""
}

var nonFinite = regexp.MustCompile(`\bNaN\b|[+-]Inf\b`)

// checkArtifacts checks RenderAll's output: non-empty, free of NaN and
// infinities, and listing every mapped ISP, geocoded ones in Table 1 and
// POP-only ones in the step-3 table.
func checkArtifacts(out string) string {
	if strings.TrimSpace(out) == "" {
		return "RenderAll is empty"
	}
	if m := nonFinite.FindString(out); m != "" {
		return fmt.Sprintf("RenderAll contains %q", m)
	}
	table1, step3, ok := strings.Cut(out, "Step 3:")
	if !ok {
		return "RenderAll has no step-3 table"
	}
	step3, _, _ = strings.Cut(step3, "Figure 1:")
	for _, p := range mapbuilder.Profiles() {
		if !p.Mapped() {
			continue
		}
		where, text := "Table 1", table1
		if !p.Geocoded {
			where, text = "the step-3 table", step3
		}
		if !strings.Contains(text, p.Name) {
			return fmt.Sprintf("%s does not list mapped ISP %q", where, p.Name)
		}
	}
	return ""
}

// validateTopK is the map builder's default ValidateTopK.
const validateTopK = 8

// replayValidate re-runs the map build's step-2 validation queries
// against the build's own records index, in the builder's order. It is
// timed only when traced, as a replay outside the op.
func replayValidate(res *mapbuilder.Result, op int, tr *tracer) (calls, validated int) {
	if tr == nil {
		return 0, 0
	}
	sp := tr.replay("records.validate", op, -1)
	inf := records.NewInference(res.Index)
	for _, p := range mapbuilder.Profiles() {
		if !p.Mapped() || !p.Geocoded {
			continue
		}
		edges := make([]int, 0, len(res.Truth[p.Name].Edges))
		for eid := range res.Truth[p.Name].Edges {
			edges = append(edges, eid)
		}
		sort.Ints(edges)
		for _, eid := range edges {
			cor := &res.Atlas.Corridors[eid]
			ref := records.NewConduitRef(res.Atlas.Cities[cor.A].Key(), res.Atlas.Cities[cor.B].Key())
			calls++
			if _, ok := inf.Validate(ref, p.Name, validateTopK); ok {
				validated++
			}
		}
	}
	tr.count(sp, float64(calls))
	tr.end(sp)
	return calls, validated
}

func (c *coldstart) finish(p *pass) []string    { return nil }
func (c *coldstart) extras() map[string]float64 { return nil }
func (c *coldstart) close()                     {}
