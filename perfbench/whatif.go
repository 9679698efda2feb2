package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"intertubes"
	"intertubes/internal/obs"
	"intertubes/internal/scenario"
	"intertubes/internal/server"
)

// whatif times POST /api/scenario through server.Server.ServeHTTP, in
// process, against a warmed study: a fixed mix of distinct plain
// scenarios, distinct scenarios with the latency study, and repeats that
// the scenario cache answers.
type whatif struct {
	seed    int64
	workers int
	reqs    []request
	study   *intertubes.Study
	srv     *server.Server

	// first maps a scenario hash to the digest of its first response body.
	first map[string]string
	// hits and misses count, per op, the cache counters' movement.
	hits, misses int
}

// whatifOps is the op list length: ten blocks of the class mix.
const whatifOps = 1000

var (
	cacheHits   = obs.GetCounter("scenario_cache_hits_total", "")
	cacheMisses = obs.GetCounter("scenario_cache_misses_total", "")
)

func newWhatif(seed int64, workers int) *whatif { return &whatif{seed: seed, workers: workers} }

// minOps is the whole op list, so p99 has ten samples beyond it. A
// traced run reports only p50s and means per call, and times three whole
// blocks of the class mix.
func (w *whatif) minOps(traced bool) int {
	if traced {
		return 3 * whatifBlock
	}
	return whatifOps
}

func (w *whatif) classOrder() []string { return whatifClassOrder }

func (w *whatif) ops() []string {
	out := make([]string, len(w.reqs))
	for i, r := range w.reqs {
		out[i] = r.line()
	}
	return out
}

// setup builds the study and the server, then runs one evaluation with
// the latency study so every baseline memo is built before timing.
func (w *whatif) setup(tr *tracer) error {
	w.close()
	sp := tr.begin("mapbuilder.build", -1)
	w.study = intertubes.NewStudy(intertubes.Options{Seed: servedStudySeed, Workers: w.workers})
	tr.end(sp)
	replayValidate(w.study.Result(), -1, tr)
	sp = tr.begin("server.new", -1)
	w.srv = server.New(w.study, nil)
	tr.end(sp)
	sp = tr.begin("scenario.warm", -1)
	_, err := w.study.Scenarios().Engine().Evaluate(context.Background(), scenario.Scenario{
		Name: "bench-warm", CutMostShared: 1, IncludeLatency: true,
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("warm evaluation: %w", err)
	}
	if w.reqs == nil {
		w.reqs = whatifRequests(w.seed, w.study.Map(), whatifOps)
	}
	w.first = make(map[string]string)
	w.hits, w.misses = 0, 0
	return nil
}

func (w *whatif) run(i int, tr *tracer) sample {
	r := w.reqs[i]
	h0, m0 := cacheHits.Value(), cacheMisses.Value()
	start := time.Now()
	root := tr.begin("op", i)
	req := httptest.NewRequest(http.MethodPost, "/api/scenario", bytes.NewReader(r.Body))
	rec := httptest.NewRecorder()
	sp := tr.begin("server", i)
	w.srv.ServeHTTP(rec, req)
	tr.end(sp)
	tr.end(root)
	s := sample{class: r.Class, ms: msSince(start), work: 1}
	dh, dm := int(cacheHits.Value()-h0), int(cacheMisses.Value()-m0)
	w.hits += dh
	w.misses += dm

	body := rec.Body.Bytes()
	sum := sha256.Sum256(body)
	s.out = hex.EncodeToString(sum[:8])
	if rec.Code != http.StatusOK {
		s.fail = fmt.Sprintf("status %d: %.200s", rec.Code, body)
		return s
	}
	if err := checkFiniteJSON(body); err != nil {
		s.fail = err.Error()
		return s
	}
	wantHit := r.Class == "hit"
	if wantHit != (dh == 1 && dm == 0) || !wantHit && dm != 1 {
		s.fail = fmt.Sprintf("%s request moved cache hits by %d and misses by %d", r.Class, dh, dm)
		return s
	}
	if wantHit {
		if w.first[r.Hash] != s.out {
			s.fail = "cache-hit body differs from the first answer for its scenario"
			return s
		}
	} else {
		w.first[r.Hash] = s.out
	}
	s.fail = w.replay(r, i, sp, body, tr)
	return s
}

// replay re-runs the request's evaluation and encoding directly, after
// the op, to estimate how ServeHTTP's time splits; the rest of ServeHTTP
// is server.self. Evaluations with the latency study also time the
// atlas-row alternative, Engine.LatencyAtlasFor, outside the op's sum.
func (w *whatif) replay(r request, op, within int, body []byte, tr *tracer) string {
	if tr == nil {
		return ""
	}
	ctx := context.Background()
	cache := w.study.Scenarios()
	name := map[string]string{"hit": "scenario.cache_hit", "plain": "scenario.evaluate", "latency": "scenario.evaluate_latency"}[r.Class]
	sp := tr.replay(name, op, within)
	var res *scenario.Result
	var err error
	if r.Class == "hit" {
		res, err = cache.Eval(ctx, r.Sc)
	} else {
		res, err = cache.Engine().Evaluate(ctx, r.Sc)
	}
	tr.end(sp)
	if err != nil {
		return fmt.Sprintf("replayed evaluation: %v", err)
	}
	sp = tr.replay("server.encode", op, within)
	raw, err := json.MarshalIndent(res, "", " ")
	tr.count(sp, float64(len(raw)))
	tr.end(sp)
	if err != nil {
		return fmt.Sprintf("replayed encoding: %v", err)
	}
	if !bytes.Equal(append(raw, '\n'), body) {
		return "replayed evaluation encodes differently from the served body"
	}
	if r.Class == "latency" {
		sp = tr.replay("latency.atlas_for", op, -1)
		at, err := cache.Engine().LatencyAtlasFor(ctx, r.Sc)
		if err == nil {
			tr.count(sp, float64(at.ReusedRows))
		}
		tr.end(sp)
		if err != nil {
			return fmt.Sprintf("LatencyAtlasFor: %v", err)
		}
	}
	return ""
}

// checkFiniteJSON decodes body and checks every number is finite.
func checkFiniteJSON(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return fmt.Errorf("response does not decode: %v", err)
	}
	var walk func(any) error
	walk = func(v any) error {
		switch t := v.(type) {
		case json.Number:
			if f, err := strconv.ParseFloat(string(t), 64); err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("response holds a non-finite number %s", t)
			}
		case []any:
			for _, e := range t {
				if err := walk(e); err != nil {
					return err
				}
			}
		case map[string]any:
			for _, e := range t {
				if err := walk(e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(v)
}

// finish checks that the cache answered exactly the planned repeats.
func (w *whatif) finish(p *pass) []string {
	planned := 0
	for _, s := range p.samples {
		if s.class == "hit" {
			planned++
		}
	}
	if w.hits != planned || w.hits+w.misses != len(p.samples) {
		return []string{fmt.Sprintf("cache counted %d hits and %d misses over %d requests; %d hits were planned",
			w.hits, w.misses, len(p.samples), planned)}
	}
	return nil
}

func (w *whatif) extras() map[string]float64 {
	return map[string]float64{"scenario.cache_hit_ratio": float64(w.hits) / float64(max(w.hits+w.misses, 1))}
}

func (w *whatif) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv, w.study = nil, nil
	}
}
