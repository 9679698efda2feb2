package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
)

// fuzz_test.go drives the clone-vs-overlay differential harness from
// fuzzed perturbations over a small atlas: whatever the fuzzer
// composes, the engine and the clone-per-scenario oracle
// (referenceEvaluate) must agree byte for byte (or fail with the same
// error), and neither may panic.

var (
	fuzzOnce  sync.Once
	fuzzEng   *Engine
	fuzzRes   *mapbuilder.Result
	fuzzIsps  []string
	fuzzNodes int
)

// fuzzEngine builds one tiny three-provider atlas and an engine over
// it. Small on purpose: the clone oracle runs on every fuzz input.
func fuzzEngine() *Engine {
	fuzzOnce.Do(func() {
		profiles := []mapbuilder.Profile{
			{Name: "Alpha", Tier: mapbuilder.Tier1, Geocoded: true, POPTarget: 10, Redundancy: 0.2, JitterAmp: 0.2},
			{Name: "Beta", Tier: mapbuilder.Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.2, JitterAmp: 0.2},
			{Name: "Gamma", Tier: mapbuilder.Regional, Geocoded: true, POPTarget: 6, Redundancy: 0.3, JitterAmp: 0.2},
		}
		fuzzRes = mapbuilder.BuildWithProfiles(mapbuilder.Options{Seed: 3}, profiles)
		mx := risk.Build(fuzzRes.Map, nil)
		fuzzIsps = mx.ISPs
		fuzzNodes = fuzzRes.Map.NumNodes()
		fuzzEng = New(fuzzRes, mx, Options{Seed: 3})
	})
	return fuzzEng
}

// fuzzScenario shapes arbitrary fuzz bytes into a scenario. Values
// are folded into valid ranges except the cut ids, which may go out
// of range on purpose — engine and oracle must then fail identically.
func fuzzScenario(cutA, cutB uint16, shared, between, rmMask, addA, addB, tenantMask uint8) Scenario {
	var sc Scenario
	nc := fuzzRes.Map.NumConduits()
	if cutA > 0 {
		sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(int(cutA)%(nc+3)))
	}
	if cutB > 0 {
		sc.CutConduits = append(sc.CutConduits, fiber.ConduitID(int(cutB)%(nc+3)))
	}
	sc.CutMostShared = int(shared % 8)
	sc.CutMostBetween = int(between % 8)
	for i, isp := range fuzzIsps {
		if rmMask&(1<<uint(i)) != 0 {
			sc.RemoveISPs = append(sc.RemoveISPs, isp)
		}
	}
	a, b := int(addA)%fuzzNodes, int(addB)%fuzzNodes
	if a != b {
		var tenants []string
		for i, isp := range fuzzIsps {
			if tenantMask&(1<<uint(i)) != 0 {
				tenants = append(tenants, isp)
			}
		}
		sc.Additions = []Addition{{
			A:       fuzzRes.Map.Node(fiber.NodeID(a)).Key(),
			B:       fuzzRes.Map.Node(fiber.NodeID(b)).Key(),
			Tenants: tenants, // empty = open access
		}}
	}
	return sc
}

func FuzzOverlayEvaluate(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(1), uint16(5), uint8(3), uint8(2), uint8(1), uint8(0), uint8(7), uint8(2))
	f.Add(uint16(9999), uint16(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(2), uint8(0))
	f.Add(uint16(4), uint16(4), uint8(7), uint8(7), uint8(7), uint8(3), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, cutA, cutB uint16, shared, between, rmMask, addA, addB, tenantMask uint8) {
		eng := fuzzEngine()
		sc := fuzzScenario(cutA, cutB, shared, between, rmMask, addA, addB, tenantMask)
		ctx := context.Background()

		rOv, errOv := eng.Evaluate(ctx, sc)
		rCl, errCl := referenceEvaluate(ctx, eng, eng.snapshot(), sc)
		if (errOv == nil) != (errCl == nil) {
			t.Fatalf("error disagreement: overlay=%v clone=%v (scenario %+v)", errOv, errCl, sc)
		}
		if errOv != nil {
			if errOv.Error() != errCl.Error() {
				t.Fatalf("error text disagreement: overlay=%q clone=%q", errOv, errCl)
			}
			return
		}
		bOv, err := json.Marshal(rOv)
		if err != nil {
			t.Fatal(err)
		}
		bCl, err := json.Marshal(rCl)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bOv, bCl) {
			t.Fatalf("overlay and clone Results diverge for %+v:\n overlay: %s\n clone:   %s", sc, bOv, bCl)
		}
	})
}
