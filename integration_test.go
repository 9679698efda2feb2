package intertubes_test

// integration_test.go checks invariants that span modules: the map
// built by mapbuilder must be consistent with the atlas it came from,
// the risk matrix with the map, the traceroute overlay with both, and
// the mitigation analyses with the risk matrix. These are the
// contracts the paper's analysis chain silently depends on.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/mitigate"
	"intertubes/internal/records"
	"intertubes/internal/risk"
)

func TestIntegrationMapMatchesAtlas(t *testing.T) {
	s := study(t)
	res := s.Result()
	a := res.Atlas
	for i := range res.Map.Nodes {
		n := &res.Map.Nodes[i]
		if n.AtlasCity < 0 || n.AtlasCity >= len(a.Cities) {
			t.Fatalf("node %s has no atlas city", n.Key())
		}
		city := a.Cities[n.AtlasCity]
		if city.Key() != n.Key() {
			t.Errorf("node %s mapped to atlas city %s", n.Key(), city.Key())
		}
		if n.Loc != city.Loc {
			t.Errorf("node %s location drifted", n.Key())
		}
	}
	for i := range res.Map.Conduits {
		c := &res.Map.Conduits[i]
		if c.Corridor < 0 || c.Corridor >= len(a.Corridors) {
			t.Fatalf("conduit %d has no corridor", i)
		}
		corr := a.Corridors[c.Corridor]
		// The conduit connects the corridor's cities.
		na, nb := res.Map.Node(c.A), res.Map.Node(c.B)
		cityPair := map[string]bool{
			a.Cities[corr.A].Key(): true,
			a.Cities[corr.B].Key(): true,
		}
		if !cityPair[na.Key()] || !cityPair[nb.Key()] {
			t.Errorf("conduit %d endpoints %s-%s do not match corridor %s-%s",
				i, na.Key(), nb.Key(), a.Cities[corr.A].Key(), a.Cities[corr.B].Key())
		}
		// The conduit path stays within a few km of its corridor.
		if len(c.Path) > 2 {
			mid := c.Path[len(c.Path)/2]
			if d := corr.Geometry.DistanceToKm(mid); d > 10 {
				t.Errorf("conduit %d drifts %.1f km from its corridor", i, d)
			}
		}
		// Length is geometric.
		if math.Abs(c.LengthKm-c.Path.LengthKm()) > 1e-6 {
			t.Errorf("conduit %d length inconsistent", i)
		}
	}
}

func TestIntegrationTenancyConsistency(t *testing.T) {
	s := study(t)
	m := s.Map()
	// Published tenants come only from mapped providers; totals agree
	// with LinkCount; no tenant is both hidden and published.
	links := 0
	for i := range m.Conduits {
		c := &m.Conduits[i]
		links += len(c.Tenants)
		for _, h := range c.Hidden {
			if c.HasTenant(h) {
				t.Errorf("conduit %d: %s both hidden and published", i, h)
			}
		}
		for j := 1; j < len(c.Tenants); j++ {
			if c.Tenants[j-1] >= c.Tenants[j] {
				t.Errorf("conduit %d tenants not sorted/unique", i)
			}
		}
	}
	if links != m.LinkCount() {
		t.Errorf("links sum %d != LinkCount %d", links, m.LinkCount())
	}
	// ConduitsOf inverts tenancy exactly.
	for _, isp := range m.ISPs() {
		for _, cid := range m.ConduitsOf(isp) {
			if !m.Conduit(cid).HasTenant(isp) {
				t.Fatalf("ConduitsOf(%s) includes conduit %d without tenancy", isp, cid)
			}
		}
	}
}

func TestIntegrationRiskMatrixAgreesWithMap(t *testing.T) {
	s := study(t)
	m := s.Map()
	mx := s.RiskMatrix()
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		if got := mx.Sharing(c.ID); got != len(c.Tenants) {
			t.Errorf("conduit %d sharing %d != tenants %d", i, got, len(c.Tenants))
		}
	}
	// Figure 6's k=1 count equals the tenanted-conduit count.
	if counts := mx.SharingCounts(); counts[0] != m.Stats().Conduits {
		t.Errorf("matrix k=1 count %d != map conduits %d", counts[0], m.Stats().Conduits)
	}
}

func TestIntegrationCampaignRespectsMap(t *testing.T) {
	s := study(t)
	camp := s.Campaign()
	m := s.Map()
	// Every probed conduit exists and is tenanted (the overlay maps
	// onto lit conduits only).
	for cid, d := range camp.ConduitProbes {
		if int(cid) >= len(m.Conduits) {
			t.Fatalf("probed conduit %d does not exist", cid)
		}
		if len(m.Conduit(cid).Tenants) == 0 {
			t.Errorf("probed conduit %d is unlit", cid)
		}
		if d.Total() <= 0 {
			t.Errorf("conduit %d has zero probes but is recorded", cid)
		}
	}
	// Inferred tenants include hidden ground-truth providers
	// somewhere (Figure 9's whole point).
	foundHidden := false
	for cid, tenants := range camp.InferredTenants {
		for isp := range tenants {
			if !m.Conduit(cid).HasTenant(isp) {
				foundHidden = true
			}
		}
	}
	if !foundHidden {
		t.Error("overlay never revealed an unpublished tenant")
	}
}

func TestIntegrationRecordsDescribeTruth(t *testing.T) {
	s := study(t)
	res := s.Result()
	// Every corpus reference corresponds to a corridor with at least
	// one ground-truth tenant, and the truth tenants are providers.
	providers := make(map[string]bool)
	for name := range res.Truth {
		providers[name] = true
	}
	for _, ref := range res.Corpus.Refs() {
		tenants := res.Corpus.TrueTenants(ref)
		if len(tenants) == 0 {
			t.Errorf("ref %v has no tenants", ref)
		}
		for _, isp := range tenants {
			if !providers[isp] {
				t.Errorf("ref %v names unknown provider %q", ref, isp)
			}
		}
	}
	// Validation evidence resolves to real documents mentioning the
	// queried entities.
	inf := records.NewInference(res.Index)
	checked := 0
	for _, ref := range res.Corpus.Refs() {
		tenants := res.Corpus.TrueTenants(ref)
		if docID, ok := inf.Validate(ref, tenants[0], 8); ok {
			doc := res.Index.Doc(docID)
			text := strings.ToLower(doc.Title + " " + doc.Body)
			city := strings.ToLower(strings.Split(ref.A, ",")[0])
			if !strings.Contains(text, city) {
				t.Errorf("evidence doc %d does not mention %q", docID, city)
			}
			checked++
		}
		if checked > 25 {
			break
		}
	}
	if checked == 0 {
		t.Error("no validations succeeded at all")
	}
}

func TestIntegrationRobustnessPathsExist(t *testing.T) {
	s := study(t)
	m := s.Map()
	mx := s.RiskMatrix()
	// Re-running the framework on a single target must produce
	// consistent SRR: never negative, never more than the target's own
	// sharing.
	targets := mx.TopShared(3)
	rows := mitigate.RobustnessSuggestion(m, mx, targets, 3)
	maxSharing := 0
	for _, cid := range targets {
		if sh := mx.Sharing(cid); sh > maxSharing {
			maxSharing = sh
		}
	}
	for _, r := range rows {
		if r.Evaluated == 0 {
			continue
		}
		if r.SRR.Max > float64(maxSharing) {
			t.Errorf("%s SRR.Max %v exceeds any target's sharing %d", r.ISP, r.SRR.Max, maxSharing)
		}
		if r.SRR.Min < 0 || r.PI.Min < 0 {
			t.Errorf("%s negative stats: %+v %+v", r.ISP, r.SRR, r.PI)
		}
	}
}

func TestIntegrationLatencyAgainstDirectComputation(t *testing.T) {
	s := study(t)
	m := s.Map()
	// For a few pairs, the study's BestMs must equal an independent
	// shortest-path computation.
	study := s.Latency()
	g := m.Graph()
	for i, pl := range study {
		if i >= 10 {
			break
		}
		p, ok := g.ShortestPathWS(graph.NewWorkspace(), int(pl.A), int(pl.B), m.LitWeight())
		if !ok {
			t.Fatalf("pair %d unreachable", i)
		}
		want := p.Weight / 204.2
		if math.Abs(pl.BestMs-want)/want > 0.01 {
			t.Errorf("pair %d best %.3f ms != direct %.3f ms", i, pl.BestMs, want)
		}
	}
}

func TestIntegrationAdditionsAreNewConduits(t *testing.T) {
	s := study(t)
	m := s.Map()
	add := s.Additions()
	seen := make(map[[2]fiber.NodeID]bool)
	for _, ad := range add.Additions {
		key := [2]fiber.NodeID{ad.A, ad.B}
		if ad.A > ad.B {
			key = [2]fiber.NodeID{ad.B, ad.A}
		}
		if seen[key] {
			t.Errorf("addition %v chosen twice", key)
		}
		seen[key] = true
		if len(m.ConduitsBetween(ad.A, ad.B)) != 0 {
			t.Errorf("addition %v duplicates existing conduit", key)
		}
		gc := m.Node(ad.A).Loc.DistanceKm(m.Node(ad.B).Loc)
		if math.Abs(gc-ad.LengthKm) > 1 {
			t.Errorf("addition length %.1f != great circle %.1f", ad.LengthKm, gc)
		}
	}
}

func TestIntegrationRiskSubsetConsistency(t *testing.T) {
	s := study(t)
	m := s.Map()
	// A matrix over a subset of ISPs must never report more sharing
	// than the full matrix.
	full := s.RiskMatrix()
	sub := risk.Build(m, []string{"Level 3", "AT&T", "Sprint", "Verizon"})
	for _, cid := range sub.TopShared(50) {
		if sub.Sharing(cid) > full.Sharing(cid) {
			t.Errorf("conduit %d: subset sharing %d > full %d", cid, sub.Sharing(cid), full.Sharing(cid))
		}
	}
}

func TestIntegrationDatasetRoundTrip(t *testing.T) {
	s := study(t)
	path := filepath.Join(t.TempDir(), "map.txt")
	if err := s.ExportDataset(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := fiber.ReadMap(f)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded map supports the same analyses with identical
	// results: stats and the risk matrix must agree.
	a, b := s.Map().Stats(), got.Stats()
	a.TotalKm, b.TotalKm = 0, 0 // coordinate rounding shifts lengths by metres
	if a != b {
		t.Fatalf("stats differ after round trip:\n%+v\n%+v", a, b)
	}
	mxA := risk.Build(s.Map(), nil)
	mxB := risk.Build(got, nil)
	for i, c := range mxA.SharingCounts() {
		if mxB.SharingCounts()[i] != c {
			t.Fatalf("sharing counts differ at k=%d", i+1)
		}
	}
}
