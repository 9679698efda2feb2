package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one recorded call into a layer. The benchmark records spans
// around the public calls it makes; the program itself is not
// instrumented. A replay span times a second, direct call made after the
// op to estimate a part of an op span the benchmark cannot see inside
// (Within), or to measure a layer outside the op (Within == -1).
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`     // op index; -1 for set-up
	Parent int     `json:"parent"` // enclosing span; -1 for a root
	Within int     `json:"within"` // replay: span it estimates a part of; -1 for none
	Replay bool    `json:"replay,omitempty"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
	Count  float64 `json:"count,omitempty"` // items handled: queries, probes, bytes, rows, cells
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing and reads no clock, so the untraced pass runs the same
// code with no tracing cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Millisecond) }

// begin opens a span inside the innermost open span.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	return t.push(span{Name: name, Op: op, Parent: parent, Within: -1})
}

// replay opens a replay span; within is the op span whose time it
// estimates a part of, or -1 when it stays out of the op's sum.
func (t *tracer) replay(name string, op, within int) int {
	if t == nil {
		return -1
	}
	return t.push(span{Name: name, Op: op, Parent: -1, Within: within, Replay: true})
}

func (t *tracer) push(s span) int {
	s.Start = t.now()
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	} else {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[id].Name))
	}
}

// count attaches an item count to span id.
func (t *tracer) count(id int, n float64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].Count += n
}

// row is one line of the layer table: the self time a layer accounts
// for, as a mean per op (so rows add up) and per call.
type row struct {
	Name      string  `json:"name"`
	Source    string  `json:"source"` // span, replay, remainder
	InSum     bool    `json:"inSum"`
	Calls     int     `json:"calls"`
	MsPerOp   float64 `json:"msPerOp"`
	MsPerCall float64 `json:"msPerCall"`
	Count     float64 `json:"countPerCall,omitempty"`
	totalMs   float64
	totalCnt  float64
}

// layerTable attributes the traced ops' time to layers. Each op span's
// self time is its duration minus its child spans and the replay
// estimates made for it. The op root's self time is the unattributed
// row, so the in-sum rows add up to the mean traced op time.
type layerTable struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Ops      int     `json:"ops"`
	OpMs     float64 `json:"tracedOpMeanMs"`
	Rows     []row   `json:"rows"`
	Setup    []row   `json:"setup"`

	TracedP50   float64 `json:"tracedOpP50Ms"`
	UntracedP50 float64 `json:"untracedOpP50Ms"`
}

func buildLayerTable(workload string, seed int64, spans []span) *layerTable {
	children := make(map[int]float64)
	for _, s := range spans {
		switch {
		case !s.Replay && s.Parent >= 0:
			children[s.Parent] += s.ms()
		case s.Replay && s.Within >= 0:
			children[s.Within] += s.ms()
		}
	}
	hasParts := make(map[int]bool)
	for _, s := range spans {
		if s.Replay && s.Within >= 0 {
			hasParts[s.Within] = true
		}
	}
	lt := &layerTable{Workload: workload, Seed: seed}
	ops := make(map[string]*row)
	setup := make(map[string]*row)
	var order, setupOrder []string
	var opTotal float64
	for i, s := range spans {
		name, source := s.Name, "span"
		self := s.ms() - children[i]
		switch {
		case s.Replay:
			source, self = "replay", s.ms()
		case s.Name == "op":
			name, source = "unattributed", "remainder"
			if s.Op >= 0 {
				lt.Ops++
				opTotal += s.ms()
			}
		case hasParts[i]:
			name, source = s.Name+".self", "remainder"
		}
		rows, ord := ops, &order
		if s.Op < 0 {
			rows, ord = setup, &setupOrder
		}
		r := rows[name]
		if r == nil {
			r = &row{Name: name, Source: source, InSum: s.Op >= 0 && (!s.Replay || s.Within >= 0)}
			rows[name] = r
			*ord = append(*ord, name)
		}
		r.Calls++
		r.totalMs += self
		r.totalCnt += s.Count
	}
	finish := func(rows map[string]*row, names []string, perOp int) []row {
		out := make([]row, 0, len(names))
		for _, n := range names {
			r := *rows[n]
			r.MsPerCall = r.totalMs / float64(r.Calls)
			r.Count = r.totalCnt / float64(r.Calls)
			if perOp > 0 {
				r.MsPerOp = r.totalMs / float64(perOp)
			}
			out = append(out, r)
		}
		// In-sum rows first, largest first; replays outside the sum last.
		sort.SliceStable(out, func(a, b int) bool {
			if out[a].InSum != out[b].InSum {
				return out[a].InSum
			}
			return out[a].MsPerOp > out[b].MsPerOp
		})
		return out
	}
	lt.Rows = finish(ops, order, lt.Ops)
	lt.Setup = finish(setup, setupOrder, 0)
	if lt.Ops > 0 {
		lt.OpMs = opTotal / float64(lt.Ops)
	}
	return lt
}

// find returns the op row named name, else the set-up row, else nil.
func (lt *layerTable) find(name string) *row {
	for _, rows := range [][]row{lt.Rows, lt.Setup} {
		for i := range rows {
			if rows[i].Name == name {
				return &rows[i]
			}
		}
	}
	return nil
}

// inSumMs adds up the rows that make up the op.
func (lt *layerTable) inSumMs() float64 {
	var sum float64
	for _, r := range lt.Rows {
		if r.InSum {
			sum += r.MsPerOp
		}
	}
	return sum
}

func (lt *layerTable) write(w io.Writer) {
	fmt.Fprintf(w, "layer table: workload=%s seed=%d traced ops=%d, mean traced op %.3f ms\n", lt.Workload, lt.Seed, lt.Ops, lt.OpMs)
	fmt.Fprintf(w, "  %-28s %12s %8s %7s %12s %14s  %s\n", "row", "ms/op", "share", "calls", "ms/call", "count/call", "source")
	line := func(r row, share string) {
		fmt.Fprintf(w, "  %-28s %12.4f %8s %7d %12.4f %14.1f  %s\n", r.Name, r.MsPerOp, share, r.Calls, r.MsPerCall, r.Count, r.Source)
	}
	for _, r := range lt.Rows {
		if r.InSum {
			line(r, fmt.Sprintf("%.1f%%", 100*r.MsPerOp/lt.OpMs))
		}
	}
	fmt.Fprintf(w, "  %-28s %12.4f %8s\n", "sum of rows", lt.inSumMs(), fmt.Sprintf("%.1f%%", 100*lt.inSumMs()/lt.OpMs))
	var outside []string
	for _, r := range lt.Rows {
		if !r.InSum {
			outside = append(outside, r.Name)
			line(r, "replay")
		}
	}
	if len(outside) > 0 {
		fmt.Fprintf(w, "  (%s: replayed after the op, outside its sum)\n", strings.Join(outside, ", "))
	}
	for _, r := range lt.Setup {
		line(r, "set-up")
	}
	over := lt.TracedP50 - lt.UntracedP50
	fmt.Fprintf(w, "  tracing overhead: op_p50 traced %.4f ms vs untraced %.4f ms (%+.4f ms, %+.2f%%)\n",
		lt.TracedP50, lt.UntracedP50, over, 100*over/lt.UntracedP50)
}

// layerMetric is one per-layer metric of BENCHMARK.json. Every workload
// reports every one; a layer the workload's ops never enter reads 0.
type layerMetric struct {
	name, unit string
	value      func(lt *layerTable, extras map[string]float64) float64
}

// rowMs is the mean ms per call of a row: op rows first, else set-up.
func rowMs(name string) func(*layerTable, map[string]float64) float64 {
	return func(lt *layerTable, _ map[string]float64) float64 {
		if r := lt.find(name); r != nil {
			return r.MsPerCall
		}
		return 0
	}
}

// rowCount is the mean item count per call of a row.
func rowCount(name string) func(*layerTable, map[string]float64) float64 {
	return func(lt *layerTable, _ map[string]float64) float64 {
		if r := lt.find(name); r != nil {
			return r.Count
		}
		return 0
	}
}

// rowRate is a row's items per second of its own time.
func rowRate(name string) func(*layerTable, map[string]float64) float64 {
	return func(lt *layerTable, _ map[string]float64) float64 {
		if r := lt.find(name); r != nil && r.totalMs > 0 {
			return r.totalCnt / r.totalMs * 1000
		}
		return 0
	}
}

func extra(name string) func(*layerTable, map[string]float64) float64 {
	return func(_ *layerTable, ex map[string]float64) float64 { return ex[name] }
}

var perLayer = []layerMetric{
	{"mapbuilder.build_ms", "ms", rowMs("mapbuilder.build")},
	{"records.validate_calls", "count", rowCount("records.validate")},
	{"records.validate_ms", "ms", rowMs("records.validate")},
	{"traceroute.campaign_ms", "ms", rowMs("traceroute.campaign")},
	{"traceroute.probes_per_s", "1/s", rowRate("traceroute.campaign")},
	{"geo.colocation_ms", "ms", rowMs("geo.colocation")},
	{"mitigate.robustness_ms", "ms", rowMs("mitigate.robustness")},
	{"mitigate.additions_ms", "ms", rowMs("mitigate.additions")},
	{"mitigate.latency_study_ms", "ms", rowMs("mitigate.latency_study")},
	{"latency.atlas_ms", "ms", rowMs("latency.atlas")},
	{"report.render_ms", "ms", rowMs("report.render")},
	{"scenario.evaluate_ms", "ms", rowMs("scenario.evaluate")},
	{"scenario.evaluate_latency_ms", "ms", rowMs("scenario.evaluate_latency")},
	{"latency.atlas_for_ms", "ms", rowMs("latency.atlas_for")},
	{"latency.reused_rows", "count", rowCount("latency.atlas_for")},
	{"scenario.cache_hit_ms", "ms", rowMs("scenario.cache_hit")},
	{"scenario.cache_hit_ratio", "ratio", extra("scenario.cache_hit_ratio")},
	{"server.encode_ms", "ms", rowMs("server.encode")},
	{"server.encode_bytes", "bytes", rowCount("server.encode")},
	{"server.self_ms", "ms", rowMs("server.self")},
	{"scenario.plan_ms", "ms", rowMs("scenario.plan")},
	{"scenario.sweep_ms", "ms", rowMs("scenario.sweep")},
	{"scenario.sweep_cells_per_s", "1/s", rowRate("scenario.sweep")},
	{"jobs.batch_ms", "ms", extra("jobs.batch_ms")},
	{"jobs.checkpoint_bytes", "bytes", extra("jobs.checkpoint_bytes")},
	{"jobs.result_ms", "ms", rowMs("jobs.result")},
	{"jobs.self_ms", "ms", rowMs("jobs.self")},
	{"op.unattributed_ms", "ms", rowMs("unattributed")},
	{"host.steal_pct", "%", extra("host.steal_pct")},
	{"op.traced_p50_ms", "ms", func(lt *layerTable, _ map[string]float64) float64 { return lt.TracedP50 }},
	{"op.untraced_p50_ms", "ms", func(lt *layerTable, _ map[string]float64) float64 { return lt.UntracedP50 }},
	{"trace.overhead_ms", "ms", func(lt *layerTable, _ map[string]float64) float64 { return lt.TracedP50 - lt.UntracedP50 }},
}

func layerMetrics(lt *layerTable, extras map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{m.value(lt, extras), m.unit}
	}
	return out
}
