package hashjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"hashjoin/internal/workload"
)

// TestNativeSimParity joins the same seeded workloads through the
// simulator (env.Join) and the native engine (a native RunPipeline) for
// every scheme, asserting identical NOutput and KeySum — the two
// backends' output-compatibility contract. Both read the same pages of
// one Env's arena.
func TestNativeSimParity(t *testing.T) {
	specs := []workload.Spec{
		{NBuild: 4000, TupleSize: 36, MatchesPerBuild: 2, PctMatched: 100, Seed: 1},
		{NBuild: 6000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 60, Seed: 2},
		{NBuild: 2500, TupleSize: 100, MatchesPerBuild: 4, PctMatched: 85, Seed: 3},
		{NBuild: 3000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 100, Seed: 4, Skew: 12},
	}
	// Randomized specs: deterministic seed, random shapes.
	rng := rand.New(rand.NewSource(20260805))
	for i := 0; i < 4; i++ {
		specs = append(specs, workload.Spec{
			NBuild:          500 + rng.Intn(8000),
			TupleSize:       8 + 4*rng.Intn(30),
			MatchesPerBuild: 1 + rng.Intn(4),
			PctMatched:      40 + rng.Intn(61),
			Skew:            1 + rng.Intn(3)*rng.Intn(5),
			Seed:            rng.Int63(),
		})
	}

	for si, spec := range specs {
		for _, scheme := range []Scheme{Baseline, Simple, Group, Pipelined} {
			t.Run(fmt.Sprintf("spec%d/%v", si, scheme), func(t *testing.T) {
				env, build, probe, pair := pipelineTestEnv(t, spec)
				sim, err := env.Join(build, probe, WithScheme(scheme))
				if err != nil {
					t.Fatalf("sim join: %v", err)
				}
				nat, err := env.RunPipeline(build, probe, WithEngine(EngineNative),
					WithPipelineScheme(scheme), WithPipelineWorkers(4), WithPipelineFanout(1))
				if err != nil {
					t.Fatalf("native join: %v", err)
				}
				if sim.NOutput != pair.ExpectedMatches || sim.KeySum != pair.KeySum {
					t.Fatalf("simulator diverges from ground truth: (%d, %d) vs (%d, %d)",
						sim.NOutput, sim.KeySum, pair.ExpectedMatches, pair.KeySum)
				}
				if nat.NOutput != sim.NOutput || nat.KeySum != sim.KeySum {
					t.Fatalf("native (%d, %d) != simulated (%d, %d)",
						nat.NOutput, nat.KeySum, sim.NOutput, sim.KeySum)
				}
			})
		}
	}
}

// TestNativeSimParityPartitioned covers the end-to-end GRACE pipeline:
// the simulator partitions under a memory budget, the native engine
// radix-partitions with an explicit fan-out, and both must agree with
// the ground truth (partition fan-out never changes join output).
func TestNativeSimParityPartitioned(t *testing.T) {
	spec := workload.Spec{NBuild: 12000, TupleSize: 28, MatchesPerBuild: 2, PctMatched: 90, Seed: 11}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		t.Run(scheme.String(), func(t *testing.T) {
			env, build, probe, pair := pipelineTestEnv(t, spec)
			sim, err := env.Join(build, probe, WithScheme(scheme), WithMemBudget(64<<10))
			if err != nil {
				t.Fatalf("sim join: %v", err)
			}
			if sim.NPartitions < 2 {
				t.Fatalf("budget did not force partitioning (%d partitions)", sim.NPartitions)
			}
			nat, err := env.RunPipeline(build, probe, WithEngine(EngineNative),
				WithPipelineScheme(scheme), WithPipelineFanout(16), WithPipelineWorkers(8))
			if err != nil {
				t.Fatalf("native join: %v", err)
			}
			if nat.JoinFanout != 16 {
				t.Fatalf("native fanout = %d, want 16", nat.JoinFanout)
			}
			if nat.NOutput != pair.ExpectedMatches || nat.KeySum != pair.KeySum {
				t.Fatalf("native (%d, %d) != expected (%d, %d)",
					nat.NOutput, nat.KeySum, pair.ExpectedMatches, pair.KeySum)
			}
			if nat.NOutput != sim.NOutput || nat.KeySum != sim.KeySum {
				t.Fatalf("native (%d, %d) != simulated (%d, %d)",
					nat.NOutput, nat.KeySum, sim.NOutput, sim.KeySum)
			}
		})
	}
}

// TestNativeJoinPublicAPI exercises the documented public path: relations
// built tuple by tuple through Env.NewRelation/Append, joined natively
// through RunPipeline.
func TestNativeJoinPublicAPI(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(32<<20))
	build := env.NewRelation(40)
	probe := env.NewRelation(40)
	payload := make([]byte, 36)
	var wantSum uint64
	for i := 0; i < 5000; i++ {
		k := uint32(i)*2654435761 | 1
		build.Append(k, payload)
		probe.Append(k, payload)
		probe.Append(k, payload)
		wantSum += 2 * uint64(k)
	}
	r, err := env.RunPipeline(build, probe, WithEngine(EngineNative))
	if err != nil {
		t.Fatal(err)
	}
	if r.NOutput != 10000 || r.KeySum != wantSum {
		t.Fatalf("native RunPipeline = (%d, %d), want (10000, %d)", r.NOutput, r.KeySum, wantSum)
	}
	if r.Elapsed <= 0 || r.JoinFanout < 1 {
		t.Fatalf("implausible result metadata: %+v", r)
	}
}
