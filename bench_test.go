package hashjoin

// One benchmark per reproduced table/figure (see DESIGN.md's
// per-experiment index) plus ablation benches for the design decisions
// the reproduction calls out. Benchmarks run the tiny scale so the whole
// suite completes in minutes; regenerate paper-scale numbers with
//
//	go run ./cmd/hjbench -all -scale full
//
// Custom metrics report the figures' headline quantities (speedups,
// stall fractions) alongside wall-clock ns/op of the simulation itself.

import (
	"io"
	"sort"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/exp"
	jhash "hashjoin/internal/hash"
	"hashjoin/internal/memsim"
	"hashjoin/internal/vmem"
	"hashjoin/internal/workload"
)

// benchScale keeps `go test -bench=.` fast while preserving every
// qualitative relationship; see exp.TinyScale.
func benchScale() exp.Scale { return exp.TinyScale() }

// runFig executes a registered experiment b.N times.
func runFig(b *testing.B, id string) {
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for range e.Run(benchScale()) {
		}
	}
}

func BenchmarkFig01Breakdown(b *testing.B) {
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		t := exp.Fig01(benchScale())
		frac = t.Rows[1].Values[1] // join dcache%
	}
	b.ReportMetric(frac, "join-dcache-%")
}

func BenchmarkFig09IOBound(b *testing.B) { runFig(b, "fig9") }

func BenchmarkFig10aTupleSize(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := exp.Fig10a(benchScale())
		base, group := t.Series("baseline"), t.Series("group")
		speedup = base[2] / group[2] // 100B pivot
	}
	b.ReportMetric(speedup, "group-speedup-100B")
}

func BenchmarkFig10bMatches(b *testing.B)  { runFig(b, "fig10b") }
func BenchmarkFig10cPctMatch(b *testing.B) { runFig(b, "fig10c") }

func BenchmarkFig11JoinBreakdown(b *testing.B) { runFig(b, "fig11") }

func BenchmarkFig12Tuning(b *testing.B)        { runFig(b, "fig12") }
func BenchmarkFig13MissBreakdown(b *testing.B) { runFig(b, "fig13") }

func BenchmarkFig14aPartitions(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		t := exp.Fig14a(benchScale())
		base, group := t.Series("baseline"), t.Series("group")
		speedup = base[len(base)-1] / group[len(group)-1]
	}
	b.ReportMetric(speedup, "group-speedup-800p")
}

func BenchmarkFig14bRelSize(b *testing.B)      { runFig(b, "fig14b") }
func BenchmarkFig15PartBreakdown(b *testing.B) { runFig(b, "fig15") }
func BenchmarkFig16PartTuning(b *testing.B)    { runFig(b, "fig16") }
func BenchmarkFig17PartMiss(b *testing.B)      { runFig(b, "fig17") }

func BenchmarkFig18Flush(b *testing.B) {
	b.ReportAllocs()
	var groupDegrade, directDegrade float64
	for i := 0; i < b.N; i++ {
		t := exp.Fig18(benchScale())
		last := t.Rows[len(t.Rows)-1]
		groupDegrade = last.Values[0] - 100
		directDegrade = last.Values[2] - 100
	}
	b.ReportMetric(groupDegrade, "group-degrade-%")
	b.ReportMetric(directDegrade, "direct-cache-degrade-%")
}

func BenchmarkFig19Overall(b *testing.B)   { runFig(b, "fig19") }
func BenchmarkFig19dPctMatch(b *testing.B) { runFig(b, "fig19d") }

// BenchmarkModelVsSim compares the Theorem 1/2 analytical optima with a
// measured sweep: the simulated optimum must lie near the model's.
func BenchmarkModelVsSim(b *testing.B) {
	sc := benchScale()
	params := OptimalParamsFor(sc.Cfg.MemLatency, sc.Cfg.MemNextLatency)
	b.ReportMetric(float64(params.G), "model-G")
	b.ReportMetric(float64(params.D), "model-D")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnv(WithHierarchy(sc.Cfg), WithCapacity(64<<20))
		build, probe := benchRelations(env, 4000, 60)
		res, err := env.Join(build, probe, WithParams(params))
		if err != nil {
			b.Fatal(err)
		}
		if res.NOutput == 0 {
			b.Fatal("no output")
		}
	}
}

// benchRelations builds a matched pair of relations through the public
// API.
func benchRelations(env *Env, n, tupleSize int) (*Relation, *Relation) {
	build := env.NewRelation(tupleSize)
	probe := env.NewRelation(tupleSize)
	payload := make([]byte, tupleSize-4)
	for i := 0; i < n; i++ {
		k := uint32(i)*2654435761 | 1
		build.Append(k, payload)
		probe.Append(k, payload)
		probe.Append(k, payload)
	}
	return build, probe
}

// BenchmarkAblationDirectVsArena measures the cost of the simulation
// substrate itself: the same join executed timed (through vmem+memsim)
// versus untimed (direct arena operations on the same structures).
func BenchmarkAblationDirectVsArena(b *testing.B) {
	spec := workload.Spec{NBuild: 20000, TupleSize: 60, MatchesPerBuild: 2, PctMatched: 100, Seed: 7}

	b.Run("simulated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := arena.New(workload.ArenaBytesFor(spec))
			pair := workload.Generate(a, spec)
			m := vmem.New(a, memsim.NewSim(memsim.SmallConfig()))
			res := core.JoinPair(m, pair.Build, pair.Probe, core.SchemeGroup, core.DefaultParams(), 1, false)
			if res.NOutput != pair.ExpectedMatches {
				b.Fatal("wrong join result")
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := arena.New(workload.ArenaBytesFor(spec))
			pair := workload.Generate(a, spec)
			tbl := jhash.NewTable(a, jhash.SizeFor(pair.Build.NTuples, 1))
			pair.Build.Each(func(t []byte, code uint32) {
				// Addresses are irrelevant untimed; store the key.
				tbl.Insert(a, jhash.BucketOf(code, tbl.NBuckets), code, arena.Addr(pair.Build.Schema.Key(t))+arena.Base)
			})
			matches := 0
			pair.Probe.Each(func(t []byte, code uint32) {
				key := pair.Probe.Schema.Key(t)
				tbl.Lookup(a, jhash.BucketOf(code, tbl.NBuckets), code, func(tp arena.Addr) {
					if uint32(tp-arena.Base) == key {
						matches++
					}
				})
			})
			if matches != pair.ExpectedMatches {
				b.Fatal("wrong direct join result")
			}
		}
	})
}

// BenchmarkAblationChainedBucket contrasts the paper's Figure 2 layout
// (inline first cell + contiguous overflow array) with classic chained
// bucket hashing, both group-prefetched, under a skewed key distribution
// that makes buckets hold several cells. The chain walk is a dependent
// pointer chase that prefetching cannot cover (paper section 3, fn 3).
func BenchmarkAblationChainedBucket(b *testing.B) {
	spec := workload.Spec{NBuild: 12000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 17, Skew: 8}
	var ratio float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a1 := arena.New(workload.ArenaBytesFor(spec) * 2)
		p1 := workload.Generate(a1, spec)
		m1 := vmem.New(a1, memsim.NewSim(memsim.SmallConfig()))
		chained := core.JoinPairChained(m1, p1.Build, p1.Probe, core.SchemeGroup, core.DefaultParams())

		a2 := arena.New(workload.ArenaBytesFor(spec) * 2)
		p2 := workload.Generate(a2, spec)
		m2 := vmem.New(a2, memsim.NewSim(memsim.SmallConfig()))
		array := core.JoinPair(m2, p2.Build, p2.Probe, core.SchemeGroup, core.DefaultParams(), 1, false)
		ratio = float64(chained.ProbeStats.Total()) / float64(array.ProbeStats.Total())
	}
	b.ReportMetric(ratio, "chained/array-probe-cycles")
}

// BenchmarkAblationHashCodeReuse toggles the section 7.1 memoization of
// hash codes in intermediate partition slots.
func BenchmarkAblationHashCodeReuse(b *testing.B) {
	spec := workload.Spec{NBuild: 20000, TupleSize: 60, MatchesPerBuild: 2, PctMatched: 100, Seed: 11}
	measure := func(recompute bool) uint64 {
		a := arena.New(workload.ArenaBytesFor(spec))
		pair := workload.Generate(a, spec)
		m := vmem.New(a, memsim.NewSim(memsim.SmallConfig()))
		p := core.DefaultParams()
		p.RecomputeHash = recompute
		return core.JoinPair(m, pair.Build, pair.Probe, core.SchemeGroup, p, 1, false).Cycles()
	}
	var overhead float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		overhead = float64(measure(true))/float64(measure(false)) - 1
	}
	b.ReportMetric(overhead*100, "recompute-overhead-%")
}

// BenchmarkSkew exercises the read-write conflict machinery under a
// heavily skewed build key distribution.
func BenchmarkSkew(b *testing.B) {
	spec := workload.Spec{NBuild: 10000, TupleSize: 60, MatchesPerBuild: 1, PctMatched: 100, Seed: 13, Skew: 50}
	for _, sch := range []struct {
		name   string
		scheme core.Scheme
	}{{"group", core.SchemeGroup}, {"pipelined", core.SchemePipelined}} {
		b.Run(sch.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := arena.New(workload.ArenaBytesFor(spec) * 4)
				pair := workload.Generate(a, spec)
				m := vmem.New(a, memsim.NewSim(memsim.SmallConfig()))
				res := core.JoinPair(m, pair.Build, pair.Probe, sch.scheme, core.DefaultParams(), 1, false)
				if res.NOutput != pair.ExpectedMatches {
					b.Fatal("wrong join result under skew")
				}
			}
		})
	}
}

// BenchmarkAggregation measures the paper's proposed extension:
// hash-based group-by under baseline vs group prefetching.
func BenchmarkAggregation(b *testing.B) {
	build := func() (*Env, *Relation) {
		env := NewEnv(WithSmallHierarchy(), WithCapacity(128<<20))
		rel := env.NewRelation(20)
		payload := make([]byte, 16)
		for i := 0; i < 30000; i++ {
			payload[0] = byte(i)
			rel.Append(uint32(i%12000)*2654435761|1, payload)
		}
		return env, rel
	}
	var base, grp uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		envB, relB := build()
		_, sb := envB.Aggregate(relB, 12000, WithScheme(Baseline))
		envG, relG := build()
		_, sg := envG.Aggregate(relG, 12000, WithScheme(Group))
		base, grp = sb.Total(), sg.Total()
	}
	b.ReportMetric(float64(base)/float64(grp), "group-speedup")
}

// BenchmarkPublicAPIQuickstart measures the documented quick-start path.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20))
		build, probe := benchRelations(env, 5000, 100)
		res, err := env.Join(build, probe, WithScheme(Group))
		if err != nil {
			b.Fatal(err)
		}
		if res.NOutput != 10000 {
			b.Fatalf("NOutput = %d", res.NOutput)
		}
	}
}

// BenchmarkRunExperimentAPI exercises the public experiment runner.
func BenchmarkRunExperimentAPI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(io.Discard, "fig11", "tiny"); err != nil {
			b.Fatal(err)
		}
	}
}

// medianDuration returns the middle element of ds (averaging the two
// middle elements for even lengths). It sorts ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}
