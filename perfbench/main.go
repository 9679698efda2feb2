// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (coldstart, whatif or gridsweep) over an op list generated
// from the workload seed, checks every op's output, and prints every
// metric as one JSON object on the last line of standard output:
//
//	python3 perfbench/run.py --workload whatif --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the op list untraced, then again with spans around each call into
// a layer, and reports the per-layer metrics and the layer table. See
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"intertubes/internal/obs"
)

// setupRuns is how many times a measured run sets up; setup_s is their
// median.
const setupRuns = 3

// hardStop bounds a run's timing loop, whatever --seconds says, so the
// process ends within its time limit on a slow host.
const hardStop = 150 * time.Second

var procStart = time.Now()

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// workload is one benchmark workload. setup (re)builds the program
// state, generating the op list on first use; run times op i and checks
// its output.
type workload interface {
	setup(tr *tracer) error
	ops() []string
	minOps(traced bool) int
	classOrder() []string
	run(i int, tr *tracer) sample
	finish(p *pass) []string
	extras() map[string]float64
	close()
}

// sample is one timed op.
type sample struct {
	class string  // request class, for the class-aware percentiles
	ms    float64 // op time
	work  float64 // studies, requests or cells the op completed
	out   string  // digest of the op's output
	fail  string  // why the op's output check failed; empty when it passed

	window int // the pass's steal window the op ran in
}

// pass is one timed sweep over the op list.
type pass struct {
	samples  []sample
	setupMs  []float64
	setupWin []int // steal window of each set-up
	host     hostTime
	cut      bool // stopped by hardStop before minOps
}

// times returns the op times of class (every class when empty), as
// measured or, when scaled, each scaled by the share of CPU time the
// host left the benchmark in its window (steal.go).
func (p *pass) times(class string, scaled bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if class == "" || s.class == class {
			out = append(out, s.ms*p.share(s.window, scaled))
		}
	}
	return out
}

func (p *pass) setups(scaled bool) []float64 {
	out := make([]float64, len(p.setupMs))
	for k, ms := range p.setupMs {
		out[k] = ms * p.share(p.setupWin[k], scaled)
	}
	return out
}

func (p *pass) share(window int, scaled bool) float64 {
	if !scaled {
		return 1
	}
	return p.host.kept(window, window+1)
}

// stealPct is the share of CPU time the host took over the whole pass.
func (p *pass) stealPct() float64 {
	return 100 * (1 - p.host.kept(0, len(p.host.marks)-1))
}

func (p *pass) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.fail != "" {
			n++
		}
	}
	return n
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string
	workers  int
	statCPUs int // CPUs the steal counter sums over (steal.go)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "coldstart, whatif or gridsweep")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "least time to measure; a run also times at least the workload's minimum op count")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps, layer tables and checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workloadName, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1, out: *out, workers: runtime.NumCPU(),
	}
	cfg.statCPUs, _ = readStat()
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Per-request info logs would dominate the server's own time.
	obs.SetLevel(slog.LevelWarn)
	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	var res *result
	if cfg.trace {
		res, err = tracedRun(cfg, w, stdout)
	} else {
		res, err = measuredRun(cfg, w, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "coldstart":
		return newColdstart(cfg.seed, cfg.workers), nil
	case "whatif":
		return newWhatif(cfg.seed, cfg.workers), nil
	case "gridsweep":
		return newGridsweep(cfg.seed, cfg.workers, cfg.out), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want coldstart, whatif or gridsweep)", cfg.workload)
}

// measure sets up `setups` times, then times ops in list order: at
// least minOps and for at least cfg.seconds, or exactly limit ops when
// limit > 0.
func measure(cfg config, w workload, setups, limit int, tr *tracer) (*pass, error) {
	p := &pass{host: hostTime{cpus: cfg.statCPUs}}
	for k := 0; k < setups; k++ {
		// Collect the previous set-up's state first, so the peak RSS is
		// one set-up's whatever the GC's pacing.
		runtime.GC()
		win := p.host.mark()
		t := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setupMs = append(p.setupMs, msSince(t))
		p.setupWin = append(p.setupWin, win)
	}
	n := len(w.ops())
	if limit > 0 {
		n = min(n, limit)
	}
	runtime.GC()
	win := p.host.mark()
	start := time.Now()
	for i := 0; i < n; i++ {
		if limit == 0 && i >= w.minOps(cfg.trace) && time.Since(start) >= cfg.seconds {
			break
		}
		if time.Since(procStart) > hardStop {
			p.cut = i < w.minOps(cfg.trace)
			break
		}
		s := w.run(i, tr)
		s.window = win
		p.samples = append(p.samples, s)
		if time.Since(p.host.marks[win].at) >= windowLen {
			win = p.host.mark()
		}
	}
	p.host.mark()
	return p, nil
}

// report prints the op-list digest, failures and per-op output digests,
// and returns the failure messages of the whole pass.
func report(out io.Writer, cfg config, w workload, p *pass, label string) []string {
	ops := w.ops()
	n := len(p.samples)
	fmt.Fprintf(out, "oplist workload=%s seed=%d ops=%d sha256=%s timed=%d timed-sha256=%s (%s)\n",
		cfg.workload, cfg.seed, len(ops), digest(ops, len(ops)), n, digest(ops, n), label)
	var fails []string
	for i, s := range p.samples {
		if s.fail != "" {
			fails = append(fails, fmt.Sprintf("op %d (%s): %s", i, s.class, s.fail))
		}
	}
	if cfg.workload == "coldstart" {
		for i, s := range p.samples {
			fmt.Fprintf(out, "artifact op=%d %s sha256=%s ms=%.1f\n", i, ops[i], s.out, s.ms)
		}
	}
	fails = append(fails, w.finish(p)...)
	if p.cut {
		fails = append(fails, fmt.Sprintf("stopped after %d ops by the %v limit, before the minimum %d", n, hardStop, w.minOps(cfg.trace)))
	}
	return fails
}

func printFailures(out io.Writer, fails []string) {
	for i, f := range fails {
		if i == 20 {
			fmt.Fprintf(out, "FAIL ... and %d more\n", len(fails)-i)
			break
		}
		fmt.Fprintln(out, "FAIL", f)
	}
}

func classCounts(p *pass) map[string]int {
	counts := make(map[string]int)
	for _, s := range p.samples {
		counts[s.class]++
	}
	return counts
}

// measuredRun is --trace 0: the end-to-end metrics of an untraced run.
func measuredRun(cfg config, w workload, out io.Writer) (*result, error) {
	p, err := measure(cfg, w, setupRuns, 0, nil)
	if err != nil {
		return nil, err
	}
	fails := report(out, cfg, w, p, "untraced")
	counts := classCounts(p)
	bounds := classBoundaries(counts, w.classOrder())
	fmt.Fprintf(out, "classes: %s\n", formatShares(counts, w.classOrder()))

	fmt.Fprintf(out, "host steal %.2f%% of CPU time over %d windows; reported times are measured times x the share kept in their window\n",
		p.stealPct(), len(p.host.marks)-1)
	measured, _, _ := percentile(p.times("", false), 50)
	fmt.Fprintf(out, "measured op_p50_ms = %.4f ms\n", measured)
	p50, line, ok := reportPercentile("op_p50_ms", p.times("", true), 50, bounds)
	fmt.Fprintln(out, line)
	if !ok {
		fails = append(fails, line)
	}
	if cfg.workload == "whatif" {
		// Reported, but not gated: coldstart and gridsweep have no such
		// metric, and every gated metric is shared by all workloads.
		for _, q := range []struct {
			name  string
			class string
			p     float64
			b     []float64
		}{{"op_p99_ms", "", 99, bounds}, {"hit_p50_ms", "hit", 50, nil}} {
			_, line, ok := reportPercentile(q.name, p.times(q.class, true), q.p, q.b)
			fmt.Fprintln(out, line)
			if !ok {
				fails = append(fails, line)
			}
		}
	}
	var work float64
	for _, s := range p.samples {
		work += s.work
	}
	perSec := func(scaled bool) float64 {
		var ms float64
		for _, t := range p.times("", scaled) {
			ms += t
		}
		return work / (ms / 1000)
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "measured setup_s = %.4f s  (median of %d set-ups: %.1f ms)\n", median(p.setupMs)/1000, len(p.setupMs), p.setupMs)
	fmt.Fprintf(out, "measured work_per_s = %.4f\n", perSec(false))
	printFailures(out, fails)
	values := map[string]float64{
		"setup_s":    median(p.setups(true)) / 1000,
		"op_p50_ms":  p50,
		"work_per_s": perSec(true),
		"max_rss_mb": rss,
	}
	metrics := make(map[string]metric, len(endToEnd))
	for name, unit := range endToEnd {
		metrics[name] = metric{values[name], unit}
	}
	return &result{Correct: len(fails) == 0, Attempted: len(p.samples), Failed: p.failed(), Metrics: metrics}, nil
}

// endToEnd maps each gated metric, reported by every workload, to its
// unit. work_per_s counts studies, requests or grid cells per second of
// op time. The three times are scaled by the share of CPU time the host
// left the benchmark (steal.go).
var endToEnd = map[string]string{
	"setup_s":    "s",
	"op_p50_ms":  "ms",
	"work_per_s": "1/s",
	"max_rss_mb": "MB",
}

// tracedRun is --trace 1: the op list is timed untraced, the state is
// rebuilt, and the same ops are replayed with spans. The layer table
// attributes the traced op time; the difference between the two passes'
// op_p50 is the tracing overhead.
func tracedRun(cfg config, w workload, out io.Writer) (*result, error) {
	half := cfg
	half.seconds /= 2
	plain, err := measure(half, w, 1, 0, nil)
	if err != nil {
		return nil, err
	}
	fails := report(out, cfg, w, plain, "untraced pass")
	tr := newTracer()
	traced, err := measure(cfg, w, 1, len(plain.samples), tr)
	if err != nil {
		return nil, err
	}
	fails = append(fails, report(out, cfg, w, traced, "traced pass")...)
	for i := range traced.samples {
		if a, b := plain.samples[i].out, traced.samples[i].out; a != b {
			fails = append(fails, fmt.Sprintf("op %d: traced output %s differs from untraced %s", i, b, a))
		}
	}
	lt := buildLayerTable(cfg.workload, cfg.seed, tr.spans)
	bounds := classBoundaries(classCounts(plain), w.classOrder())
	var line string
	var ok bool
	lt.UntracedP50, line, ok = reportPercentile("untraced op_p50_ms", plain.times("", true), 50, bounds)
	fmt.Fprintln(out, line)
	if !ok {
		fails = append(fails, line)
	}
	lt.TracedP50, line, ok = reportPercentile("traced op_p50_ms", traced.times("", true), 50, bounds)
	fmt.Fprintln(out, line)
	if !ok {
		fails = append(fails, line)
	}
	lt.write(out)
	if err := writeJSONFile(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)), tr.spans); err != nil {
		return nil, err
	}
	if err := writeJSONFile(filepath.Join(cfg.out, fmt.Sprintf("layers-%s-seed%d.json", cfg.workload, cfg.seed)), lt); err != nil {
		return nil, err
	}
	extras := map[string]float64{"host.steal_pct": traced.stealPct()}
	maps.Copy(extras, w.extras())
	printFailures(out, fails)
	return &result{
		Correct:   len(fails) == 0,
		Attempted: len(plain.samples) + len(traced.samples),
		Failed:    plain.failed() + traced.failed(),
		Metrics:   layerMetrics(lt, extras),
	}, nil
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
