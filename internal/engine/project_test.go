package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/memsim"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/workload"
)

// drainRows opens, drains, and closes root like Collect, failing the
// test on any row whose Len is not width; it returns the rows' bytes
// sorted (morsel output order is not deterministic) and their totals.
func drainRows(tb testing.TB, root Operator, a *arena.Arena, width int) (Result, [][]byte) {
	tb.Helper()
	scope := a.Scope()
	defer scope.Release()
	if err := root.Open(); err != nil {
		root.Close()
		tb.Fatalf("Open: %v", err)
	}
	defer root.Close()
	var res Result
	var rows [][]byte
	var b Batch
	for {
		ok, err := root.NextBatch(&b)
		if err != nil {
			tb.Fatalf("NextBatch: %v", err)
		}
		if !ok {
			break
		}
		for _, r := range b.Rows {
			if int(r.Len) != width {
				tb.Fatalf("row Len %d, want the projected width %d", r.Len, width)
			}
			tup := a.Bytes(r.Addr, uint64(r.Len))
			res.NRows++
			res.KeySum += uint64(binary.LittleEndian.Uint32(tup))
			rows = append(rows, append([]byte(nil), tup...))
		}
	}
	slices.SortFunc(rows, bytes.Compare)
	return res, rows
}

// prefixes cuts every row to its leading n bytes; sorted rows stay
// sorted.
func prefixes(rows [][]byte, n int) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = r[:n]
	}
	return out
}

// groupsOf aggregates full rows the way HashAggregate does: by leading
// key, counting rows and summing the u32 at valueOff, sorted by key.
func groupsOf(rows [][]byte, valueOff int) []Group {
	byKey := map[uint32]*Group{}
	for _, r := range rows {
		k := binary.LittleEndian.Uint32(r)
		g := byKey[k]
		if g == nil {
			g = &Group{Key: k}
			byKey[k] = g
		}
		g.Count++
		g.Sum += uint64(binary.LittleEndian.Uint32(r[valueOff:]))
	}
	out := make([]Group, 0, len(byKey))
	for _, g := range byKey {
		out = append(out, *g)
	}
	slices.SortFunc(out, func(x, y Group) int { return cmp.Compare(x.Key, y.Key) })
	return out
}

// TestProjectedJoinParity runs every join type through every native
// join strategy (streaming, a cached BuildSide, partitioned, budgeted
// with spill and the hybrid policy, nested loop) with the consumer's byte need pushed down — a
// Project(…, 4) root drained by Run, and a HashAggregate drained by
// Groups — and checks each against the same join unprojected, natively
// and on the simulator, which writes whole rows. Every emitted row must
// carry exactly the projected width, and its bytes must be the leading
// bytes of the unprojected row.
func TestProjectedJoinParity(t *testing.T) {
	spec := workload.Spec{NBuild: 400, TupleSize: 16, PctMatched: 70,
		MatchRate: 0.55, NProbe: 900, Skew: 16, Seed: 61}
	strategies := []string{"stream", "build-side", "partitioned", "spill-hybrid", "nested-loop"}
	for _, jt := range plan.JoinTypes() {
		pair, a, m := testEnv(t, spec)
		join := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		width := join.Width()
		// Aggregate a value in the probe half where there is one, so the
		// projection reaches past the build bytes (and, for the outer
		// joins, through null padding on both sides).
		valueOff := spec.TupleSize + 4
		if jt.ProbeOnly() {
			valueOff = 8
		}
		agg := HashAggregate(join, valueOff, spec.NBuild)

		simCfg := simCfg(m, core.SchemeGroup, core.DefaultParams())
		simRun, simRows := drainRows(t, mustCompile(t, join, simCfg), a, width)
		simGroups := mustGroups(t, agg, simCfg, a)
		if len(simRows) == 0 {
			t.Fatalf("%v: empty join", jt)
		}

		bs, err := native.BuildRows(a.Data(), native.Flatten(pair.Build, nil), spec.TupleSize, native.BuildConfig{})
		if err != nil {
			t.Fatalf("BuildRows: %v", err)
		}
		for _, strategy := range strategies {
			var rep Report
			cfg := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1)
			cfg.Report = &rep
			switch strategy {
			case "build-side":
				cfg.Build = bs
			case "nested-loop":
				cfg.Strategy = plan.NestedLoop
			case "partitioned":
				cfg.Fanout, cfg.Workers = 4, 2
			case "spill-hybrid":
				cfg.Fanout, cfg.Workers = 4, 2
				cfg.MemBudget, cfg.Hybrid, cfg.SpillDir = 512, true, t.TempDir()
			}
			name := jt.String() + "/" + strategy

			full, fullRows := drainRows(t, mustCompile(t, join, cfg), a, width)
			if full != simRun || !reflect.DeepEqual(fullRows, simRows) {
				t.Fatalf("%s: unprojected native rows differ from sim (%+v vs %+v)", name, full, simRun)
			}
			if strategy == "spill-hybrid" && rep.SpilledPartitions == 0 {
				t.Fatalf("%s: the budgeted join did not spill: %+v", name, rep)
			}

			// Project(…, 4) + Run: what RunPipeline compiles without an
			// aggregate.
			key := Project(join, 4)
			if got := mustRun(t, key, cfg, a); got != simRun {
				t.Errorf("%s: Project(4)+Run = %+v, want %+v", name, got, simRun)
			}
			got, keyRows := drainRows(t, mustCompile(t, key, cfg), a, 4)
			if got != simRun || !reflect.DeepEqual(keyRows, prefixes(simRows, 4)) {
				t.Errorf("%s: projected key rows differ from the unprojected rows' keys", name)
			}

			// HashAggregate + Groups: the aggregate reads the key and one
			// value, so the join beneath it writes valueOff+4 bytes a row.
			need := valueOff + 4
			_, aggRows := drainRows(t, mustCompile(t, Project(join, need), cfg), a, need)
			if !reflect.DeepEqual(aggRows, prefixes(simRows, need)) {
				t.Errorf("%s: %d-byte prefixes differ from the unprojected rows'", name, need)
			}
			gs := mustGroups(t, agg, cfg, a)
			if !reflect.DeepEqual(gs, simGroups) || !reflect.DeepEqual(gs, groupsOf(fullRows, valueOff)) {
				t.Errorf("%s: %d groups, want %d from sim and the unprojected rows", name, len(gs), len(simGroups))
			}
		}
	}
}

// TestProjectSimTiming pins that a projection changes nothing the
// simulator measures: its joins keep their timed full-row writes, so
// Project only narrows Row.Len.
func TestProjectSimTiming(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 20, MatchesPerBuild: 2, PctMatched: 80, Seed: 62}
	for _, jt := range plan.JoinTypes() {
		var stats [2]memsim.Stats
		var res [2]Result
		for i := range stats {
			pair, a, m := testEnv(t, spec)
			p := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
			if i == 1 {
				p = Project(p, 4)
			}
			res[i] = mustRun(t, p, simCfg(m, core.SchemeGroup, core.DefaultParams()), a)
			stats[i] = m.S.Stats()
		}
		if res[0] != res[1] || stats[0] != stats[1] {
			t.Errorf("%v: Project(4) changed the simulated run: %+v %+v vs %+v %+v",
				jt, res[1], stats[1], res[0], stats[0])
		}
	}
}

// TestProjectBounds pins Project's construction contract: the prefix
// must keep the 4-byte key and fit inside the input row.
func TestProjectBounds(t *testing.T) {
	spec := workload.Spec{NBuild: 20, TupleSize: 16, MatchesPerBuild: 1, Seed: 63}
	pair, _, _ := testEnv(t, spec)
	join := HashJoin(Scan(pair.Build), Scan(pair.Probe))
	if w := Project(join, 7).Width(); w != 7 {
		t.Fatalf("Project(join, 7).Width() = %d", w)
	}
	for _, n := range []int{3, join.Width() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Project(join, %d) did not panic", n)
				}
			}()
			Project(join, n)
		}()
	}
}
