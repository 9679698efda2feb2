package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/mitigate"
	"intertubes/internal/obs"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
	"intertubes/internal/traceroute"
)

// engine.go evaluates a canonical Scenario against the baseline study
// into a Result of deltas. Evaluation is pure and deterministic: the
// same scenario against the same baseline yields the same Result for
// any worker count, which is what makes the hash a safe cache key and
// Sweep's bit-identical contract hold.
//
// Evaluation runs the copy-on-write overlay path (overlay_eval.go):
// it records the scenario's delta over the shared snapshot and
// recomputes only the stages the delta touches. The clone-per-scenario
// evaluation it is differentially tested against lives in
// reference_test.go as a test oracle.

var evaluations = obs.GetCounter("scenario_evaluations_total",
	"Scenario evaluations actually executed (cache hits and singleflight followers excluded).")

var evaluationsCanceled = obs.GetCounter("scenario_evaluations_canceled_total",
	"Scenario evaluations aborted by context cancellation or deadline before completing.")

// Options fixes the baseline knobs scenario evaluation inherits from
// the study.
type Options struct {
	// Seed is the study seed; the traffic overlay derives its campaign
	// stream from it exactly as the baseline campaign does.
	Seed int64
	// Probes is the default campaign size for IncludeTraffic scenarios
	// (overridable per scenario).
	Probes int
	// LatencyMaxPairs is the default pair cap for IncludeLatency
	// scenarios (overridable per scenario).
	LatencyMaxPairs int
	// Workers bounds the worker pool used by the heavy sub-analyses.
	// Results are bit-identical for any value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Probes == 0 {
		o.Probes = 200000
	}
	if o.LatencyMaxPairs == 0 {
		o.LatencyMaxPairs = 3000
	}
	return o
}

// Engine evaluates scenarios against one immutable baseline snapshot.
// It is safe for concurrent use: the snapshot is read-only (its lazy
// memos are internally synchronized), and SwapBaseline replaces it
// atomically without disturbing in-flight evaluations.
type Engine struct {
	opts Options

	snap atomic.Pointer[snapshot]

	hookMu   sync.Mutex
	evalHook func(ctx context.Context)
}

// New builds an engine over a completed map build and its risk
// matrix.
func New(res *mapbuilder.Result, mx *risk.Matrix, opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults()}
	e.snap.Store(newSnapshot(1, res, mx))
	return e
}

// snapshot returns the current baseline snapshot. Callers that make
// several reads against one baseline (an evaluation, a sweep) load it
// once and pass it down, so a concurrent swap cannot tear them.
func (e *Engine) snapshot() *snapshot { return e.snap.Load() }

// BaselineVersion returns the current snapshot's version; it starts
// at 1 and increments on every SwapBaseline.
func (e *Engine) BaselineVersion() uint64 { return e.snapshot().version }

// SwapBaseline atomically replaces the engine's baseline with a new
// map build and matrix. In-flight evaluations finish against the
// snapshot they started with; subsequent evaluations see the new one.
// The version bump makes stale cached results unreachable.
func (e *Engine) SwapBaseline(res *mapbuilder.Result, mx *risk.Matrix) {
	for {
		old := e.snap.Load()
		next := newSnapshot(old.version+1, res, mx)
		if e.snap.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetEvalHook installs fn to run at the start of every evaluation
// (after the executed-evaluations counter increments), with the
// evaluation's context. It exists for fault-injection tests — blocking
// an evaluation, observing its cancellation, or panicking mid-stage —
// and must not be used to mutate engine state. nil removes the hook.
func (e *Engine) SetEvalHook(fn func(ctx context.Context)) {
	e.hookMu.Lock()
	e.evalHook = fn
	e.hookMu.Unlock()
}

func (e *Engine) runEvalHook(ctx context.Context) {
	e.hookMu.Lock()
	fn := e.evalHook
	e.hookMu.Unlock()
	if fn != nil {
		fn(ctx)
	}
}

func (e *Engine) trafficOn(ctx context.Context, res *mapbuilder.Result, probes int) (TrafficSummary, error) {
	camp, err := traceroute.RunCtx(ctx, res, traceroute.Options{
		N:       probes,
		Seed:    e.opts.Seed + 2,
		Workers: e.opts.Workers,
	})
	if err != nil {
		return TrafficSummary{}, err
	}
	pub, over := camp.SharingWithTraffic()
	return TrafficSummary{
		Conduits:      len(pub),
		MeanPublished: mean(pub),
		MeanOverlaid:  mean(over),
	}, nil
}

func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// ---- Result types ----

// StatsDelta carries Figure 1's headline numbers before and after.
type StatsDelta struct {
	Before fiber.Stats `json:"before"`
	After  fiber.Stats `json:"after"`
}

// SharingShift is one k of Figure 6's distribution, before and after.
type SharingShift struct {
	K      int `json:"k"`
	Before int `json:"before"`
	After  int `json:"after"`
}

// RankShift is one provider's Figure 7 movement. A removed provider
// does not appear; a provider whose conduits all went dark keeps a
// row with MeanAfter 0.
type RankShift struct {
	ISP        string  `json:"isp"`
	MeanBefore float64 `json:"meanBefore"`
	MeanAfter  float64 `json:"meanAfter"`
	RankBefore int     `json:"rankBefore"`
	RankAfter  int     `json:"rankAfter"`
}

// Disconnection is one provider's connectivity damage: the fraction
// of its baseline-footprint node pairs disconnected, before vs after.
type Disconnection struct {
	ISP string `json:"isp"`
	// CutsHit is how many cut conduits the provider occupied in the
	// baseline map.
	CutsHit int     `json:"cutsHit"`
	Before  float64 `json:"before"`
	After   float64 `json:"after"`
	// LargestComponent is the fraction of the provider's nodes left
	// in its largest surviving component.
	LargestComponent float64 `json:"largestComponent"`
}

// PartitionShift is one provider's minimum-cuts-to-partition, before
// vs after.
type PartitionShift struct {
	ISP    string `json:"isp"`
	Before int    `json:"before"`
	After  int    `json:"after"`
}

// LatencyDelta compares the §5.3 latency summaries.
type LatencyDelta struct {
	MaxPairs int                     `json:"maxPairs"`
	Before   mitigate.LatencySummary `json:"before"`
	After    mitigate.LatencySummary `json:"after"`
}

// TrafficSummary condenses a traceroute overlay: how many published
// conduits exist and the mean sharing degree with and without the
// traffic-inferred tenants.
type TrafficSummary struct {
	Conduits      int     `json:"conduits"`
	MeanPublished float64 `json:"meanPublished"`
	MeanOverlaid  float64 `json:"meanOverlaid"`
}

// TrafficDelta compares traffic overlays at one campaign size.
type TrafficDelta struct {
	Probes int            `json:"probes"`
	Before TrafficSummary `json:"before"`
	After  TrafficSummary `json:"after"`
}

// Result is the evaluated scenario: the canonical spec, its hash, the
// resolved perturbation, and every delta against the baseline.
type Result struct {
	Hash     string   `json:"hash"`
	Scenario Scenario `json:"scenario"`

	// Cut is the resolved cut set (union of all cut clauses), sorted.
	Cut          []fiber.ConduitID `json:"cut,omitempty"`
	ConduitsCut  int               `json:"conduitsCut"`
	TenanciesCut int               `json:"tenanciesCut"`
	// ISPsRemoved / LinksRemoved account the provider-removal clause;
	// ConduitsAdded the additions actually materialized.
	ISPsRemoved   []string `json:"ispsRemoved,omitempty"`
	LinksRemoved  int      `json:"linksRemoved"`
	ConduitsAdded int      `json:"conduitsAdded"`

	Stats         StatsDelta       `json:"stats"`
	Sharing       []SharingShift   `json:"sharing"`
	Ranking       []RankShift      `json:"ranking"`
	Disconnection []Disconnection  `json:"disconnection"`
	Partition     []PartitionShift `json:"partition"`
	// LostTraffic is the capacity-layer delta: Gbps of gravity-model
	// demand the perturbation strands (capacity.go). Always present.
	LostTraffic *LostTraffic  `json:"lostTraffic"`
	Latency     *LatencyDelta `json:"latency,omitempty"`
	Traffic     *TrafficDelta `json:"traffic,omitempty"`
}

// MeanDisconnectionAfter averages the after-column of the
// disconnection table — the scalar headline of a cut scenario.
func (r *Result) MeanDisconnectionAfter() float64 {
	if len(r.Disconnection) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.Disconnection {
		sum += d.After
	}
	return sum / float64(len(r.Disconnection))
}

// ---- Evaluation ----

// Evaluate resolves, canonicalizes, and evaluates the scenario
// against the current baseline snapshot. It is deterministic: equal
// scenarios produce equal Results, bit for bit, at any Workers
// setting.
//
// Cancellation is cooperative: ctx is checked between stages and, via
// the ctx-aware par pool, at every chunk grant inside the heavy scans.
// A canceled evaluation returns ctx.Err() (and counts toward
// scenario_evaluations_canceled_total); it never returns a partial
// Result, so determinism of completed evaluations is unaffected.
func (e *Engine) Evaluate(ctx context.Context, sc Scenario) (*Result, error) {
	return e.evaluateOn(ctx, e.snapshot(), sc)
}

// evaluateOn is the shared evaluation entry: every caller that has
// pinned a snapshot (Evaluate, the cache's flights, Sweep) funnels
// through here, so one baseline swap cannot split an evaluation
// across two baselines.
func (e *Engine) evaluateOn(ctx context.Context, snap *snapshot, sc Scenario) (_ *Result, err error) {
	sc, err = Resolve(sc)
	if err != nil {
		return nil, err
	}
	evaluations.Inc()
	defer func() {
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			evaluationsCanceled.Inc()
		}
	}()
	// Trace, not StartTrace: the evaluation joins an enclosing recorded
	// trace (an HTTP scenario request, a whatif run, a sweep) but never
	// starts one itself, keeping raw Evaluate loops recorder-free.
	ctx, sp := obs.Trace(ctx, "scenario.evaluate")
	defer sp.End()
	e.runEvalHook(ctx)

	hash := ""
	if sp.TraceID() != "" {
		// The hash only feeds attribution (span attrs, pprof labels);
		// computing it is skipped entirely when nothing records.
		hash = sc.Hash()
		sp.SetAttr("scenario_hash", hash)
		sp.SetAttrInt("baseline_version", int64(snap.version))
	}

	var res *Result
	run := func(ctx context.Context) { res, err = e.evaluateOverlay(ctx, snap, sc) }
	if hash != "" {
		// pprof labels make CPU profile samples (including par worker
		// goroutines, which adopt the labels at spawn) attributable to
		// the evaluation. Only paid when the evaluation is recorded.
		pprof.Do(ctx, pprof.Labels("stage", "scenario.evaluate", "scenario_hash", hash), run)
	} else {
		run(ctx)
	}
	if err != nil {
		return nil, err
	}
	sp.SetItems(int64(len(res.Cut) + res.LinksRemoved + res.ConduitsAdded))
	return res, nil
}

// keptISPs returns the matrix providers that survive the scenario's
// removal clause, in matrix order.
func keptISPs(snap *snapshot, sc Scenario) []string {
	kept := make([]string, 0, len(snap.mx.ISPs))
	removed := make(map[string]bool, len(sc.RemoveISPs))
	for _, isp := range sc.RemoveISPs {
		removed[isp] = true
	}
	for _, isp := range snap.mx.ISPs {
		if !removed[isp] {
			kept = append(kept, isp)
		}
	}
	return kept
}

// fillSharing writes the Figure 6 distribution shift.
func fillSharing(res *Result, base *baseline, mx2 *risk.Matrix) {
	after := mx2.SharingCounts()
	n := len(base.sharing)
	if len(after) > n {
		n = len(after)
	}
	for k := 1; k <= n; k++ {
		s := SharingShift{K: k}
		if k <= len(base.sharing) {
			s.Before = base.sharing[k-1]
		}
		if k <= len(after) {
			s.After = after[k-1]
		}
		res.Sharing = append(res.Sharing, s)
	}
}

// fillRanking writes the Figure 7 movements, in after-ranking order.
func fillRanking(res *Result, base *baseline, mx2 *risk.Matrix) {
	for pos, r := range mx2.Ranking() {
		res.Ranking = append(res.Ranking, RankShift{
			ISP:        r.ISP,
			MeanBefore: base.meanOf[r.ISP],
			MeanAfter:  r.Mean,
			RankBefore: base.rankOf[r.ISP],
			RankAfter:  pos + 1,
		})
	}
}

// fillDisconnection writes the per-ISP connectivity damage table from
// an impact list already in CutImpact's order.
func fillDisconnection(res *Result, base *baseline, impacts []resilience.Impact) {
	for _, im := range impacts {
		res.Disconnection = append(res.Disconnection, Disconnection{
			ISP:              im.ISP,
			CutsHit:          im.CutsHit,
			Before:           base.disc[im.ISP].DisconnectedPairs,
			After:            im.DisconnectedPairs,
			LargestComponent: im.LargestComponent,
		})
	}
}

// latencyStage runs the §5.3 latency comparison when the scenario
// asks for it. pm is the fully perturbed map.
func (e *Engine) latencyStage(ctx context.Context, snap *snapshot, sc Scenario, pm *fiber.Map, res *Result) error {
	if !sc.IncludeLatency {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, sp := obs.Trace(ctx, "scenario.stage.latency")
	defer sp.End()
	maxPairs := e.opts.LatencyMaxPairs
	if sc.Overrides.LatencyMaxPairs > 0 {
		maxPairs = sc.Overrides.LatencyMaxPairs
	}
	afterStudy, err := mitigate.LatencyStudyCtx(ctx, pm, snap.res.Atlas, mitigate.LatencyOptions{
		MaxPairs: maxPairs,
		Workers:  e.opts.Workers,
	})
	if err != nil {
		return err
	}
	before, err := e.baselineLatency(ctx, snap, maxPairs)
	if err != nil {
		return err
	}
	res.Latency = &LatencyDelta{
		MaxPairs: maxPairs,
		Before:   before,
		After:    mitigate.Summarize(afterStudy),
	}
	return nil
}

// trafficStage runs the traffic-overlay comparison when the scenario
// asks for it. pm is the fully perturbed map.
func (e *Engine) trafficStage(ctx context.Context, snap *snapshot, sc Scenario, pm *fiber.Map, res *Result) error {
	if !sc.IncludeTraffic {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, sp := obs.Trace(ctx, "scenario.stage.traffic")
	defer sp.End()
	probes := e.opts.Probes
	if sc.Overrides.Probes > 0 {
		probes = sc.Overrides.Probes
	}
	res2 := *snap.res
	res2.Map = pm
	before, err := e.baselineTraffic(ctx, snap, probes)
	if err != nil {
		return err
	}
	after, err := e.trafficOn(ctx, &res2, probes)
	if err != nil {
		return err
	}
	res.Traffic = &TrafficDelta{
		Probes: probes,
		Before: before,
		After:  after,
	}
	return nil
}

// ResolveCuts resolves the scenario (preset expanded, fields
// validated) and materializes its cut clauses against the current
// baseline map into one sorted, de-duplicated conduit set.
func (e *Engine) ResolveCuts(sc Scenario) ([]fiber.ConduitID, error) {
	p, err := e.snapshot().perturb(sc)
	if err != nil {
		return nil, err
	}
	return p.Cuts, nil
}

func resolveCutsOn(snap *snapshot, sc Scenario) ([]fiber.ConduitID, error) {
	m := snap.res.Map
	var cuts []fiber.ConduitID
	for _, cid := range sc.CutConduits {
		if int(cid) >= len(m.Conduits) {
			return nil, fmt.Errorf("scenario: conduit %d out of range (map has %d)", cid, len(m.Conduits))
		}
		cuts = append(cuts, cid)
	}
	if sc.CutMostShared > 0 {
		cuts = append(cuts, snap.mx.TopShared(sc.CutMostShared)...)
	}
	if sc.CutMostBetween > 0 {
		rank := snap.betweennessRank()
		k := sc.CutMostBetween
		if k > len(rank) {
			k = len(rank)
		}
		cuts = append(cuts, rank[:k]...)
	}
	for _, r := range sc.Regions {
		cuts = append(cuts, resilience.ConduitsInRegion(m, resilience.Region{
			Center:   geo.Point{Lat: r.Lat, Lon: r.Lon},
			RadiusKm: r.RadiusKm,
		})...)
	}
	return dedupeIDs(cuts), nil
}

// FromAdditions converts the §5.2 optimizer's chosen builds into
// scenario additions (open access, matching the paper's framing where
// any provider may re-route over a new conduit).
func FromAdditions(m *fiber.Map, adds []mitigate.Addition) []Addition {
	out := make([]Addition, 0, len(adds))
	for _, ad := range adds {
		out = append(out, Addition{
			A: m.Node(ad.A).Key(),
			B: m.Node(ad.B).Key(),
		})
	}
	return out
}
