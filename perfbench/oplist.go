package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"intertubes/internal/fiber"
	"intertubes/internal/scenario"
)

// Every input the program receives comes from here: study seeds,
// scenario JSON bodies and grid specs, all derived from the workload
// seed. The generators are pure functions of the seed and of the map the
// study built from it, so one seed gives one op list.

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func saltOf(salt string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return h.Sum64()
}

// studySeed is the i-th study seed of a stream; positive and below 2^31.
func studySeed(seed int64, salt string, i int) int64 {
	return int64(mix(mix(uint64(seed)^saltOf(salt))+uint64(i))%(1<<31-1)) + 1
}

func newRand(seed int64, salt string) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(uint64(seed)^saltOf(salt)) >> 1)))
}

// digest hashes the one-line forms of ops[:n].
func digest(ops []string, n int) string {
	h := sha256.New()
	for _, op := range ops[:n] {
		h.Write([]byte(op))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ---- coldstart ----

// coldstartProbes is the traceroute campaign size of every coldstart study.
const coldstartProbes = 20000

// coldstartSeeds returns n study seeds for the timed ops.
func coldstartSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = studySeed(seed, "coldstart", i)
	}
	return out
}

// ---- whatif ----

// servedStudySeed is the study whatif serves and gridsweep sweeps: the
// repository's default seed. One fixed map keeps the workload seed's
// variation to the scenarios and grid specs it draws.
const servedStudySeed = 42

// The whatif request mix, per block of whatifBlock requests. Classes from
// cheapest to dearest: cache hits, plain evaluations, evaluations with
// the latency study. Sorted by time, the class boundaries fall at 25%
// and 89%, so p50 sits 25 points and p99 10 points from the nearest one.
const (
	whatifBlock   = 100
	whatifHits    = 25
	whatifLatency = 11
	whatifPlain   = whatifBlock - whatifHits - whatifLatency

	// hitWindow is how many recent distinct scenarios a repeat may target;
	// well inside the cache's LRU capacity, so every repeat is a hit.
	hitWindow = 32
)

var whatifClassOrder = []string{"hit", "plain", "latency"}

var whatifKinds = []string{"cut", "region", "remove", "add", "between"}

// request is one POST /api/scenario.
type request struct {
	Class string // hit, plain or latency
	Hash  string // canonical scenario content hash
	Body  []byte
	Sc    scenario.Scenario
}

func (r request) line() string { return r.Class + " " + r.Hash + " " + string(r.Body) }

// clauses is a scenario as the generator builds it, before encoding.
type clauses struct {
	name    string
	cuts    []fiber.ConduitID
	between int
	regions []scenario.Region
	remove  []string
	adds    []scenario.Addition
	latency bool
}

func (c clauses) scenario() scenario.Scenario {
	return scenario.Scenario{
		Name: c.name, CutConduits: c.cuts, CutMostBetween: c.between, Regions: c.regions,
		RemoveISPs: c.remove, Additions: c.adds, IncludeLatency: c.latency,
	}
}

type field struct {
	key string
	val any
}

func reversed[T any](xs []T) []T {
	out := slices.Clone(xs)
	slices.Reverse(out)
	return out
}

// body encodes the scenario as JSON. reorder reverses the key order and
// every list, which leaves the canonical scenario, and so the cache key,
// unchanged.
func (c clauses) body(reorder bool) []byte {
	fs := []field{{"name", c.name}}
	if len(c.cuts) > 0 {
		v := c.cuts
		if reorder {
			v = reversed(v)
		}
		fs = append(fs, field{"cutConduits", v})
	}
	if c.between > 0 {
		fs = append(fs, field{"cutMostBetween", c.between})
	}
	if len(c.regions) > 0 {
		v := c.regions
		if reorder {
			v = reversed(v)
		}
		fs = append(fs, field{"regions", v})
	}
	if len(c.remove) > 0 {
		v := c.remove
		if reorder {
			v = reversed(v)
		}
		fs = append(fs, field{"removeISPs", v})
	}
	if len(c.adds) > 0 {
		v := c.adds
		if reorder {
			v = reversed(v)
		}
		fs = append(fs, field{"add", v})
	}
	if c.latency {
		fs = append(fs, field{"includeLatency", true})
	}
	if reorder {
		slices.Reverse(fs)
	}
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(f.key) // a string cannot fail to encode
		v, _ := json.Marshal(f.val) // plain values cannot fail to encode
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// whatifRequests builds n requests against map m. The class of each
// request follows whatifClassOrder's shares exactly within every block;
// distinct scenarios never repeat a hash, and a hit resends a scenario
// from the last hitWindow distinct ones with its clauses reordered.
func whatifRequests(seed int64, m *fiber.Map, n int) []request {
	rng := newRand(seed, "whatif")
	var tenanted []fiber.ConduitID
	for i := range m.Conduits {
		if len(m.Conduits[i].Tenants) > 0 {
			tenanted = append(tenanted, fiber.ConduitID(i))
		}
	}
	isps := m.ISPs()
	pickCuts := func(k int) []fiber.ConduitID {
		set := make(map[fiber.ConduitID]bool)
		var out []fiber.ConduitID
		for len(out) < k {
			c := tenanted[rng.Intn(len(tenanted))]
			if !set[c] {
				set[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	radii := []float64{75, 100, 125, 150}
	// The k-th scenario of a kind in its class cycles through the kind's
	// discrete parameters (cut count, radius, removed ISP, betweenness
	// rank), so every seed draws the same parameter mix; only conduits,
	// centers and endpoints are random.
	make1 := func(kind string, i, k int, latency bool) clauses {
		c := clauses{name: fmt.Sprintf("bench-%s-%d", kind, i), latency: latency}
		switch kind {
		case "cut":
			c.cuts = pickCuts(1 + k%3)
		case "region":
			cd := m.Conduits[tenanted[rng.Intn(len(tenanted))]]
			p := cd.Path[rng.Intn(len(cd.Path))]
			round := func(v float64) float64 { return math.Round(v*100) / 100 }
			c.regions = []scenario.Region{{
				Lat: round(p.Lat + rng.Float64() - 0.5), Lon: round(p.Lon + rng.Float64() - 0.5),
				RadiusKm: radii[k%len(radii)],
			}}
		case "remove":
			c.remove = []string{isps[k%len(isps)]}
			c.cuts = pickCuts(1)
		case "add":
			a := rng.Intn(len(m.Nodes))
			b := rng.Intn(len(m.Nodes) - 1)
			if b >= a {
				b++
			}
			c.adds = []scenario.Addition{{A: m.Nodes[a].Key(), B: m.Nodes[b].Key()}}
		case "between":
			c.between = 1 + k%6
			c.cuts = pickCuts(1)
		}
		return c
	}

	out := make([]request, 0, n)
	seen := make(map[string]bool)
	var distinct []clauses
	var distinctHash []string
	perClass := map[string]int{}
	for block := 0; len(out) < n; block++ {
		classes := make([]string, 0, whatifBlock)
		for j := 0; j < whatifBlock; j++ {
			switch {
			case j < whatifHits:
				classes = append(classes, "hit")
			case j < whatifHits+whatifPlain:
				classes = append(classes, "plain")
			default:
				classes = append(classes, "latency")
			}
		}
		rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
		if block == 0 && classes[0] == "hit" {
			j := slices.IndexFunc(classes, func(s string) bool { return s != "hit" })
			classes[0], classes[j] = classes[j], classes[0]
		}
		for _, class := range classes {
			if len(out) == n {
				break
			}
			if class == "hit" {
				lo := max(0, len(distinct)-hitWindow)
				j := lo + rng.Intn(len(distinct)-lo)
				c := distinct[j]
				out = append(out, request{Class: "hit", Hash: distinctHash[j], Body: c.body(true), Sc: c.scenario()})
				continue
			}
			kind := whatifKinds[perClass[class]%len(whatifKinds)]
			k := perClass[class] / len(whatifKinds)
			perClass[class]++
			var c clauses
			var h string
			for {
				c = make1(kind, len(out), k, class == "latency")
				if h = c.scenario().Hash(); !seen[h] {
					break
				}
			}
			seen[h] = true
			distinct = append(distinct, c)
			distinctHash = append(distinctHash, h)
			out = append(out, request{Class: class, Hash: h, Body: c.body(false), Sc: c.scenario()})
		}
	}
	return out
}

// ---- gridsweep ----

// Grid ops are drawn so that every block of four holds one spec from
// each cell-count stratum: any prefix of whole blocks has the same size
// mix, so the median op does not depend on which specs a seed drew.
var gridStrata = [][2]int{{95, 99}, {110, 114}, {125, 129}, {140, 144}}

// gridOp is one grid sweep job.
type gridOp struct {
	Spec  scenario.GridSpec
	Cells int
}

func (g gridOp) line() string {
	return fmt.Sprintf("grid cellKm=%g radiiKm=%v cells=%d hash=%s", g.Spec.CellKm, g.Spec.RadiiKm, g.Cells, g.Spec.Hash())
}

// gridOps draws n distinct specs from fixed ladders, planned against m.
func gridOps(seed int64, m *fiber.Map, n int) ([]gridOp, error) {
	rng := newRand(seed, "gridsweep")
	radii := []float64{50, 75, 100, 125, 150, 175, 200}
	pool := make([][]gridOp, len(gridStrata))
	need := (n + len(gridStrata) - 1) / len(gridStrata)
	seen := make(map[string]bool)
	centers := make(map[[2]float64]int)
	for tries := 0; ; tries++ {
		full := true
		for _, p := range pool {
			full = full && len(p) >= need
		}
		if full {
			break
		}
		if tries > 20000 {
			return nil, fmt.Errorf("gridsweep: ladders cannot fill every cell-count stratum")
		}
		spec := scenario.GridSpec{CellKm: float64(180 + 2*rng.Intn(71)), RadiiKm: []float64{radii[rng.Intn(len(radii))]}}
		if rng.Intn(2) == 0 {
			r2 := radii[rng.Intn(len(radii))]
			if r2 != spec.RadiiKm[0] {
				spec.RadiiKm = append(spec.RadiiKm, r2)
				slices.Sort(spec.RadiiKm)
			}
		}
		h := spec.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		// A plan keeps the lattice centers its largest radius can reach
		// fiber from and evaluates every radius there, so its size is
		// centers(cellKm, largest radius) × radii: one plan per pair.
		key := [2]float64{spec.CellKm, spec.RadiiKm[len(spec.RadiiKm)-1]}
		c, ok := centers[key]
		if !ok {
			plan, err := scenario.PlanGrid(m, scenario.GridSpec{CellKm: key[0], RadiiKm: key[1:]})
			if err != nil {
				return nil, err
			}
			c = plan.Total()
			centers[key] = c
		}
		cells := c * len(spec.RadiiKm)
		for s, r := range gridStrata {
			if cells >= r[0] && cells <= r[1] && len(pool[s]) < need {
				pool[s] = append(pool[s], gridOp{Spec: spec, Cells: cells})
			}
		}
	}
	out := make([]gridOp, 0, n)
	for b := 0; len(out) < n; b++ {
		order := rng.Perm(len(gridStrata))
		for _, s := range order {
			if len(out) < n {
				out = append(out, pool[s][b])
			}
		}
	}
	return out, nil
}
