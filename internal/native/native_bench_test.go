package native

// Native-engine benchmarks: the paper's join-phase experiment on real
// hardware. The workload is the pivot configuration scaled to a >= 1M
// tuple probe relation (500k build x 2 matches, 100-byte tuples), joined
// as a single partition pair so the hash table and build tuples live far
// outside the caches — the regime whose miss latency the group and
// pipelined schemes exist to hide.
//
// BenchmarkNativeSpeedup additionally writes BENCH_native.json at the
// repository root, a machine-readable trajectory point (join-phase wall
// clock per scheme plus the speedups over baseline) for tracking the
// native engine across checkins:
//
//	go test -run '^$' -bench BenchmarkNativeSpeedup -benchtime=1x ./internal/native

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/workload"
)

// nativeBenchSpec is the >= 1M probe-tuple pivot workload.
var nativeBenchSpec = workload.Spec{
	NBuild:          500_000,
	TupleSize:       100,
	MatchesPerBuild: 2,
	PctMatched:      100,
	Seed:            42,
}

// nativeBenchDoc is where BenchmarkNativeSpeedup writes its trajectory:
// the repository root, relative to this package's directory.
const nativeBenchDoc = "../../BENCH_native.json"

var (
	nativeBenchOnce   sync.Once
	nativeBenchPair   *workload.Pair
	nativeBenchJoiner *Joiner
)

// nativeBenchRelations generates the benchmark workload once; joins do
// not mutate the relations, so all benchmarks share them — along with
// one resident Joiner, warmed by an untimed join, so every measurement
// runs on recycled, already-populated memory. (Growing fresh scratch
// per join stalls in the kernel's page population and was the dominant
// noise source on virtualized hosts.) Sized for the relations alone:
// the native engine's tables live on the Go heap, not in the arena.
func nativeBenchRelations(tb testing.TB) *workload.Pair {
	nativeBenchOnce.Do(func() {
		spec := nativeBenchSpec
		if spec.NProbe == 0 {
			spec.NProbe = spec.NBuild * spec.MatchesPerBuild
		}
		tuples := uint64(spec.NBuild + spec.NProbe)
		bytes := tuples*uint64(spec.TupleSize+12) + (1 << 20)
		nativeBenchPair = workload.Generate(arena.New(bytes*11/10), spec)
		nativeBenchJoiner = NewJoiner()
		if _, err := nativeBenchJoiner.Join(nativeBenchPair.Build, nativeBenchPair.Probe,
			Config{Scheme: Baseline, Fanout: 1}); err != nil {
			panic(err)
		}
	})
	if n := nativeBenchPair.Probe.NTuples; n < 1_000_000 {
		tb.Fatalf("benchmark probe relation has %d tuples, want >= 1M", n)
	}
	return nativeBenchPair
}

// benchJoin runs one validated join of the benchmark workload on the
// resident Joiner.
func benchJoin(tb testing.TB, pair *workload.Pair, cfg Config) Result {
	r, err := nativeBenchJoiner.Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		tb.Fatalf("scheme %v: %v", cfg.Scheme, err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		tb.Fatalf("scheme %v: wrong result: (%d, %d) want (%d, %d)",
			cfg.Scheme, r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	return r
}

// benchmarkNative runs one scheme as a single partition pair.
func benchmarkNative(b *testing.B, scheme Scheme) {
	pair := nativeBenchRelations(b)
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		last = benchJoin(b, pair, Config{Scheme: scheme, Fanout: 1})
	}
	b.StopTimer()
	tuplesPerSec := float64(pair.Probe.NTuples) / last.JoinTime.Seconds()
	b.ReportMetric(tuplesPerSec/1e6, "Mprobe/s")
}

func BenchmarkNativeBaseline(b *testing.B)  { benchmarkNative(b, Baseline) }
func BenchmarkNativeGroup(b *testing.B)     { benchmarkNative(b, Group) }
func BenchmarkNativePipelined(b *testing.B) { benchmarkNative(b, Pipelined) }

// BenchmarkNativeMorsel exercises the full join — radix partitioning
// plus the morsel-driven worker pool — at a fan-out that gives every
// core work.
func BenchmarkNativeMorsel(b *testing.B) {
	pair := nativeBenchRelations(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchJoin(b, pair, Config{Scheme: Group, Fanout: 64})
	}
}

// nativeTrajectory is the BENCH_native.json document.
type nativeTrajectory struct {
	NBuild      int  `json:"n_build"`
	NProbe      int  `json:"n_probe"`
	TupleSize   int  `json:"tuple_size"`
	Fanout      int  `json:"fanout"`
	GOMAXPROCS  int  `json:"gomaxprocs"`
	PrefetchASM bool `json:"prefetch_asm"`
	// Budget governor state: the configured memory budget (0 when
	// unbudgeted, as here) and the deepest recursive re-partitioning any
	// pair needed to fit it.
	MemBudget      int `json:"mem_budget"`
	RecursionDepth int `json:"recursion_depth"`
	// Per-scheme join-phase wall clocks (partitioning excluded — it is
	// identical work for every scheme), medians over interleaved
	// repetitions.
	BaselineMs  float64 `json:"baseline_ms"`
	GroupMs     float64 `json:"group_ms"`
	PipelinedMs float64 `json:"pipelined_ms"`
	// Speedups are baseline elapsed over scheme elapsed, the same ratio
	// the simulator reports in cycles for the paper's figures.
	GroupSpeedup     float64 `json:"group_speedup"`
	PipelinedSpeedup float64 `json:"pipelined_speedup"`
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

// BenchmarkNativeSpeedup measures all three schemes on the >= 1M tuple
// workload, reports the join-phase wall-clock speedups of Group and
// Pipelined over Baseline — the paper's Figure 10 comparison is join
// phase only, and partitioning is the same work under every scheme —
// and emits BENCH_native.json. Repetitions interleave the
// schemes (baseline, group, pipelined, baseline, ...) so slow host
// drift — vCPU scheduling, frequency steps — lands on every scheme
// alike instead of biasing whichever ran last, and the per-scheme
// medians are compared: on a shared virtualized CPU the per-rep spread
// is asymmetric (occasional 1.5-2x slow outliers), which makes
// best-of-N an unstable estimator but leaves the median steady.
func BenchmarkNativeSpeedup(b *testing.B) {
	pair := nativeBenchRelations(b)
	var maxDepth int
	run := func(s Scheme) time.Duration {
		r := benchJoin(b, pair, Config{Scheme: s, Fanout: 1})
		maxDepth = max(maxDepth, r.RecursionDepth)
		return r.JoinTime
	}
	const reps = 9
	var base, grp, pipe time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bs, gs, ps []time.Duration
		for rep := 0; rep < reps; rep++ {
			bs = append(bs, run(Baseline))
			gs = append(gs, run(Group))
			ps = append(ps, run(Pipelined))
		}
		base, grp, pipe = medianDuration(bs), medianDuration(gs), medianDuration(ps)
	}
	b.StopTimer()

	traj := nativeTrajectory{
		NBuild:           pair.Build.NTuples,
		NProbe:           pair.Probe.NTuples,
		TupleSize:        nativeBenchSpec.TupleSize,
		Fanout:           1,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		PrefetchASM:      HavePrefetch,
		RecursionDepth:   maxDepth,
		BaselineMs:       float64(base.Microseconds()) / 1e3,
		GroupMs:          float64(grp.Microseconds()) / 1e3,
		PipelinedMs:      float64(pipe.Microseconds()) / 1e3,
		GroupSpeedup:     base.Seconds() / grp.Seconds(),
		PipelinedSpeedup: base.Seconds() / pipe.Seconds(),
	}
	b.ReportMetric(traj.GroupSpeedup, "group-speedup")
	b.ReportMetric(traj.PipelinedSpeedup, "pipelined-speedup")

	if doc, err := json.MarshalIndent(traj, "", "  "); err == nil {
		if err := os.WriteFile(nativeBenchDoc, append(doc, '\n'), 0o644); err != nil {
			b.Logf("BENCH_native.json not written: %v", err)
		}
	}
}
