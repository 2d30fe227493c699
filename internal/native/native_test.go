package native

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// expected computes a workload's ground truth for direct comparison.
func run(t *testing.T, spec workload.Spec, cfg Config) (Result, *workload.Pair) {
	t.Helper()
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	r, err := Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return r, pair
}

func TestJoinAllSchemes(t *testing.T) {
	spec := workload.Spec{NBuild: 5000, TupleSize: 36, MatchesPerBuild: 2, PctMatched: 90, Seed: 3}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		for _, fanout := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/fanout%d", scheme, fanout), func(t *testing.T) {
				r, pair := run(t, spec, Config{Scheme: scheme, Fanout: fanout, Workers: 2})
				if r.NOutput != pair.ExpectedMatches {
					t.Fatalf("NOutput = %d, want %d", r.NOutput, pair.ExpectedMatches)
				}
				if r.KeySum != pair.KeySum {
					t.Fatalf("KeySum = %d, want %d", r.KeySum, pair.KeySum)
				}
			})
		}
	}
}

func TestJoinSkewed(t *testing.T) {
	// Repeated build keys grow bucket chains, exercising the overflow
	// slab on every scheme.
	spec := workload.Spec{NBuild: 4000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 9, Skew: 16}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		t.Run(scheme.String(), func(t *testing.T) {
			r, pair := run(t, spec, Config{Scheme: scheme})
			if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
				t.Fatalf("got (%d, %d), want (%d, %d)",
					r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
			}
		})
	}
}

func TestJoinTinyAndEmpty(t *testing.T) {
	// Degenerate sizes stress the pipelined prologue/epilogue (inputs
	// shorter than 3D) and empty-partition skipping.
	for _, n := range []int{0, 1, 2, 3, 7} {
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			t.Run(fmt.Sprintf("n%d/%v", n, scheme), func(t *testing.T) {
				spec := workload.Spec{NBuild: n, NProbe: max(2*n, 1), TupleSize: 16, MatchesPerBuild: 2, Seed: 1}
				if n == 0 {
					// workload.Generate requires NBuild >= 1; make an
					// empty build relation by hand instead.
					a := arena.New(4 << 20)
					p := workload.Generate(a, workload.Spec{NBuild: 1, NProbe: 2, TupleSize: 16, Seed: 1})
					empty := storage.NewRelation(a, p.Build.Schema, p.Build.PageSize)
					r, err := Join(empty, p.Probe, Config{Scheme: scheme})
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					if r.NOutput != 0 || r.KeySum != 0 {
						t.Fatalf("empty build produced output: %+v", r)
					}
					return
				}
				r, pair := run(t, spec, Config{Scheme: scheme, G: 5, D: 3})
				if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
					t.Fatalf("got (%d, %d), want (%d, %d)",
						r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
				}
			})
		}
	}
}

func TestMorselWorkersDeterministic(t *testing.T) {
	// The same workload must produce identical results at every worker
	// count: claim order is nondeterministic, the sums are not.
	spec := workload.Spec{NBuild: 20000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 80, Seed: 5}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	for _, workers := range []int{1, 2, 4, 16} {
		r, err := Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 32, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
			t.Fatalf("workers=%d: got (%d, %d), want (%d, %d)",
				workers, r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
	}
}

func TestPartitionPreservesEntries(t *testing.T) {
	spec := workload.Spec{NBuild: 3000, TupleSize: 16, MatchesPerBuild: 1, Seed: 2}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	data := a.Data()

	flat := flatten(data, pair.Build, nil)
	if len(flat) != pair.Build.NTuples {
		t.Fatalf("flatten produced %d entries, want %d", len(flat), pair.Build.NTuples)
	}

	p := new(partitions)
	p.fill(data, pair.Build, 16)
	if got := len(p.entries); got != len(flat) {
		t.Fatalf("partitioning kept %d entries, want %d", got, len(flat))
	}
	// Every entry must land in the partition its code selects, and the
	// multiset of keys must survive the scatter.
	var flatSum, partSum uint64
	for _, e := range flat {
		flatSum += uint64(e.Key)
	}
	for i := 0; i < p.fanout(); i++ {
		for _, e := range p.part(i) {
			if int(e.Code&uint32(p.fanout()-1)) != i {
				t.Fatalf("entry with code %#x in partition %d", e.Code, i)
			}
			partSum += uint64(e.Key)
		}
	}
	if flatSum != partSum {
		t.Fatalf("key sum changed across partitioning: %d vs %d", flatSum, partSum)
	}
}

func TestBudgetRecursionParity(t *testing.T) {
	// A budget far below the workload's footprint at a forced small
	// fan-out must trigger recursive re-partitioning, and the result must
	// be byte-identical to the unbudgeted run.
	spec := workload.Spec{NBuild: 30000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 90, Seed: 7}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)

	want, err := Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 1})
	if err != nil {
		t.Fatalf("unbudgeted Join: %v", err)
	}
	if want.RecursionDepth != 0 {
		t.Fatalf("unbudgeted join recursed to depth %d", want.RecursionDepth)
	}

	// footprint(30000) ≈ 1.7 MB; a 256 KB budget forces ~3 levels of
	// splitting at sub-fanout 2..8 per level.
	for _, workers := range []int{1, 4} {
		got, err := Join(pair.Build, pair.Probe,
			Config{Scheme: Group, Fanout: 1, MemBudget: 256 << 10, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: budgeted Join: %v", workers, err)
		}
		if got.RecursionDepth < 1 {
			t.Fatalf("workers=%d: budget %d did not recurse (depth %d)", workers, 256<<10, got.RecursionDepth)
		}
		if got.NOutput != want.NOutput || got.KeySum != want.KeySum {
			t.Fatalf("workers=%d: budgeted join got (%d, %d), want (%d, %d)",
				workers, got.NOutput, got.KeySum, want.NOutput, want.KeySum)
		}
	}
}

func TestBudgetInfeasibleReturnsError(t *testing.T) {
	// Maximum skew: every build tuple shares one key, hence one hash
	// code. No radix split separates identical codes, so with the spill
	// tier disabled an undersized budget must surface a *BudgetError —
	// not a panic, not a hang. (With spilling enabled the same join
	// completes out of core; see spill_test.go.)
	spec := workload.Spec{NBuild: 5000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 11, Skew: 5000}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	before := runtime.NumGoroutine()
	_, err := Join(pair.Build, pair.Probe,
		Config{Scheme: Group, Fanout: 4, MemBudget: 4 << 10, Workers: 4, NoSpill: true})
	if err == nil {
		t.Fatalf("infeasible budget did not fail")
	}
	if _, ok := err.(*BudgetError); !ok {
		t.Fatalf("error %T (%v), want *BudgetError", err, err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count settles back to at most
// base: a failed join must not leak morsel workers. The retry loop
// absorbs runtime-internal goroutines winding down.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFanoutFor(t *testing.T) {
	if f := fanoutFor(1000, 20, 256<<20); f != 1 {
		t.Fatalf("small build should not partition, got fanout %d", f)
	}
	f := fanoutFor(10_000_000, 20, 1<<20)
	if f < 64 || f&(f-1) != 0 {
		t.Fatalf("cache-budget fanout = %d, want a power of two covering the build", f)
	}
}
