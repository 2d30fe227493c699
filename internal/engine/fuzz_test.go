package engine

import (
	"encoding/binary"
	"reflect"
	"testing"

	"hashjoin/internal/core"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// FuzzPipelineParity fuzzes the batch geometry of the full pipeline:
// group size G down to 1, pipeline depth D, scheme, native fanout, and
// relation sizes that do not divide the batch size. For every input the
// two backends must produce identical sorted group lists, and the
// derived join totals must match the workload's ground truth.
func FuzzPipelineParity(f *testing.F) {
	f.Add(uint8(19), uint8(1), uint8(1), uint8(0), uint8(40), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(33), int64(2))  // G=1 degenerate groups
	f.Add(uint8(3), uint8(2), uint8(2), uint8(2), uint8(50), int64(3))  // G does not divide |R|
	f.Add(uint8(8), uint8(4), uint8(0), uint8(2), uint8(21), int64(4))  // baseline, morsel
	f.Add(uint8(25), uint8(3), uint8(2), uint8(0), uint8(64), int64(5)) // G > default

	f.Fuzz(func(t *testing.T, gRaw, dRaw, schemeRaw, fanoutRaw, nRaw uint8, seed int64) {
		g := 1 + int(gRaw)%32
		d := 1 + int(dRaw)%4
		scheme := []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined}[int(schemeRaw)%3]
		fanout := 1 << (int(fanoutRaw) % 3) // 1 (streaming), 2, 4 (morsel)
		nBuild := 1 + int(nRaw)             // 1..256, rarely divisible by g

		spec := workload.Spec{
			NBuild:          nBuild,
			TupleSize:       16,
			MatchesPerBuild: 1 + int(seed%3+3)%3,
			PctMatched:      80,
			Skew:            1 + int(nRaw)%2,
			Seed:            seed,
		}
		pair, a, m := testEnv(t, spec)
		params := core.Params{G: g, D: d}
		plan := HashAggregate(HashJoin(Scan(pair.Build), Scan(pair.Probe)), 4, nBuild)

		sim := mustGroups(t, plan, simCfg(m, scheme, params), a)
		nat := mustGroups(t, plan, nativeCfg(a, scheme, params, fanout), a)
		if !reflect.DeepEqual(sim, nat) {
			t.Fatalf("G=%d D=%d %v fanout=%d n=%d: groups differ (sim %d, native %d)",
				g, d, scheme, fanout, nBuild, len(sim), len(nat))
		}
		var nOut, keySum uint64
		for _, grp := range sim {
			nOut += grp.Count
			keySum += uint64(grp.Key) * grp.Count
		}
		if nOut != uint64(pair.ExpectedMatches) || keySum != pair.KeySum {
			t.Fatalf("G=%d D=%d %v fanout=%d n=%d: derived (%d, %d), want (%d, %d)",
				g, d, scheme, fanout, nBuild, nOut, keySum, pair.ExpectedMatches, pair.KeySum)
		}
	})
}

// relKeys reads every tuple's leading u32 key straight off the
// relation's pages — the raw input, independent of any join machinery.
func relKeys(rel *storage.Relation) []uint32 {
	keys := make([]uint32, 0, rel.NTuples)
	rel.Each(func(tuple []byte, _ uint32) {
		keys = append(keys, binary.LittleEndian.Uint32(tuple))
	})
	return keys
}

// nestedLoopReference computes the expected aggregate groups of a join
// with a naive O(|build| * |probe|)-spirit scan over the raw keys: a
// per-key build multiset stands in for the inner loop. Group keys follow
// the output-row convention — matches group under the build key, probe
// survivors (left-outer pads group 0; semi/anti keep their own key)
// under the probe side, unmatched build rows under their build key.
func nestedLoopReference(jt plan.JoinType, buildKeys, probeKeys []uint32) map[uint32]uint64 {
	buildCount := make(map[uint32]uint64, len(buildKeys))
	for _, k := range buildKeys {
		buildCount[k]++
	}
	probeMatched := make(map[uint32]bool)
	groups := make(map[uint32]uint64)
	for _, k := range probeKeys {
		n := buildCount[k]
		switch {
		case jt == plan.LeftSemi:
			if n > 0 {
				groups[k]++
			}
		case jt == plan.LeftAnti:
			if n == 0 {
				groups[k]++
			}
		case n > 0:
			groups[k] += n // one output row per matching build row
		case jt == plan.LeftOuter:
			groups[0]++ // null-padded build half: key reads as 0
		}
		if n > 0 {
			probeMatched[k] = true
		}
	}
	if jt == plan.RightOuter {
		for _, k := range buildKeys {
			if !probeMatched[k] {
				groups[k]++
			}
		}
	}
	return groups
}

func groupCounts(gs []Group) map[uint32]uint64 {
	m := make(map[uint32]uint64, len(gs))
	for _, g := range gs {
		m[g.Key] = g.Count
	}
	return m
}

// FuzzJoinTypeParity fuzzes every join type against a naive
// nested-loop reference computed from the raw relation bytes, across
// both backends, both native strategies the planner can pick for a
// single-table join (stream and nested-loop), and the morsel path. The
// workload generator's own ground truth is deliberately not used: the
// reference re-derives the answer from the tuples, so a generator bug
// cannot mask an engine bug. Each case also drains the join under
// Project(…, 4) with Run — the plan RunPipeline compiles without an
// aggregate — and checks its row count and key sum against the same
// reference.
func FuzzJoinTypeParity(f *testing.F) {
	f.Add(uint8(0), uint8(40), uint8(50), uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(33), uint8(0), uint8(2), uint8(1), int64(2))  // left-outer, skewed build
	f.Add(uint8(2), uint8(64), uint8(90), uint8(0), uint8(2), int64(3)) // right-outer, morsel
	f.Add(uint8(3), uint8(5), uint8(100), uint8(1), uint8(0), int64(4)) // semi, tiny build
	f.Add(uint8(4), uint8(21), uint8(10), uint8(0), uint8(1), int64(5)) // anti, sparse matches

	f.Fuzz(func(t *testing.T, jtRaw, nRaw, mrRaw, skewRaw, fanoutRaw uint8, seed int64) {
		jt := plan.JoinTypes()[int(jtRaw)%len(plan.JoinTypes())]
		nBuild := 1 + int(nRaw) // 1..256
		spec := workload.Spec{
			NBuild:     nBuild,
			TupleSize:  16,
			PctMatched: 100,
			MatchRate:  float64(int(mrRaw)%101) / 100,
			Skew:       1 + int(skewRaw)%3,
			NProbe:     1 + 2*nBuild,
			Seed:       seed,
		}
		pair, a, m := testEnv(t, spec)
		want := nestedLoopReference(jt, relKeys(pair.Build), relKeys(pair.Probe))
		var wantRun Result
		for k, n := range want {
			wantRun.NRows += int(n)
			wantRun.KeySum += uint64(k) * n
		}
		join := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		logical := HashAggregate(join, 4, nBuild)

		fanout := 1 << (int(fanoutRaw) % 3) // 1 (streaming), 2, 4 (morsel)
		cfgs := map[string]Config{
			"sim":    simCfg(m, core.SchemeGroup, core.DefaultParams()),
			"native": nativeCfg(a, core.SchemeGroup, core.DefaultParams(), fanout),
		}
		if fanout == 1 {
			nl := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1)
			nl.Strategy = plan.NestedLoop
			cfgs["nested-loop"] = nl
		}
		for name, cfg := range cfgs {
			got := groupCounts(mustGroups(t, logical, cfg, a))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %s fanout=%d n=%d mr=%.2f: %d groups vs reference %d",
					jt, name, fanout, nBuild, spec.MatchRate, len(got), len(want))
			}
			if got := mustRun(t, Project(join, 4), cfg, a); got != wantRun {
				t.Fatalf("%v %s fanout=%d n=%d mr=%.2f: Project(4)+Run = %+v, reference %+v",
					jt, name, fanout, nBuild, spec.MatchRate, got, wantRun)
			}
		}
	})
}
