package hashjoin

// The public face of the batch-oriented operator engine: one logical
// pipeline — scan, optional build-side filter, hash join, optional
// hash aggregation — that runs unchanged on either execution backend.
// WithEngine selects the backend; everything else about the plan, and
// the logical result, is backend-neutral. This replaces the former
// split where simulated joins and native joins were separate APIs with
// no way to compose either into a larger query.

import (
	"context"
	"fmt"
	"time"

	"hashjoin/internal/engine"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/sched"
)

// Engine selects the execution backend for RunPipeline.
type Engine = engine.Backend

const (
	// EngineSim runs the pipeline under the cycle-level simulator; the
	// result carries the simulated cycle breakdown.
	EngineSim = engine.Sim
	// EngineNative runs the pipeline on the host hardware with real
	// prefetches; the result carries wall-clock time.
	EngineNative = engine.Native
)

// PipelineOption configures RunPipeline.
type PipelineOption func(*pipelineConfig)

type pipelineConfig struct {
	engine    Engine
	scheme    Scheme
	params    Params
	fanout    int
	workers   int
	memBudget int

	spillDir      string
	spillWorkers  int
	spillPageSize int
	noSpill       bool
	hybrid        bool

	filterLo, filterHi uint32
	hasFilter          bool

	aggValueOff int
	aggGroups   int
	hasAgg      bool

	tenant  string
	weight  int
	planned uint64

	build *BuildSide

	joinType    plan.JoinType
	strategy    plan.Strategy
	strategySet bool // WithStrategy given: consult the planner
	matchRate   float64
}

// WithEngine selects the execution backend (default EngineSim).
func WithEngine(e Engine) PipelineOption {
	return func(c *pipelineConfig) { c.engine = e }
}

// WithPipelineScheme selects the prefetching scheme for the pipeline's
// join and aggregation (default Group).
func WithPipelineScheme(s Scheme) PipelineOption {
	return func(c *pipelineConfig) { c.scheme = s }
}

// WithPipelineParams tunes the group size G — which is also the
// operator batch size — and prefetch distance D. Zero fields keep the
// backend defaults (the merge happens at the engine boundary, so a
// partially filled Params never reaches an operator loop as a zero);
// negative fields make RunPipeline return an error.
func WithPipelineParams(p Params) PipelineOption {
	return func(c *pipelineConfig) { c.params = p }
}

// WithBuildFilter keeps only build tuples whose key lies in [lo, hi]
// before the join.
func WithBuildFilter(lo, hi uint32) PipelineOption {
	return func(c *pipelineConfig) { c.filterLo, c.filterHi, c.hasFilter = lo, hi, true }
}

// WithAggregation appends a group-by on the join key: COUNT(*) and
// SUM of the 4-byte value at valueOff within each joined row (build
// bytes first, then probe bytes). expectedGroups sizes the hash table.
func WithAggregation(valueOff, expectedGroups int) PipelineOption {
	return func(c *pipelineConfig) { c.aggValueOff, c.aggGroups, c.hasAgg = valueOff, expectedGroups, true }
}

// WithPipelineFanout selects the native join strategy: 1 (default)
// streams probe batches through one resident hash table; larger values
// radix-partition both inputs (rounded up to a power of two) and join
// under morsel-driven parallelism. The simulator backend ignores it.
func WithPipelineFanout(n int) PipelineOption {
	return func(c *pipelineConfig) { c.fanout = n }
}

// WithPipelineWorkers bounds the native morsel worker pool (default
// GOMAXPROCS).
func WithPipelineWorkers(n int) PipelineOption {
	return func(c *pipelineConfig) { c.workers = n }
}

// WithPipelineMemBudget bounds the resident footprint of the native
// join's build side in bytes. A streaming join whose build would exceed
// the budget degrades to the partitioned morsel strategy, an oversized
// partition pair is re-partitioned recursively — the GRACE answer to a
// partition that does not fit memory — and a pair no partitioning can
// shrink (heavy key skew) is joined out of core through disk-backed
// spill partitions. 0 (the default) means unbudgeted.
func WithPipelineMemBudget(bytes int) PipelineOption {
	return func(c *pipelineConfig) { c.memBudget = bytes }
}

// WithPipelineSpillDir sets the parent directory for the native join's
// out-of-core spill area (default: the OS temp directory). The spill
// tier creates its own subdirectory per run and removes it afterwards.
func WithPipelineSpillDir(dir string) PipelineOption {
	return func(c *pipelineConfig) { c.spillDir = dir }
}

// WithPipelineSpillWorkers sets the spill tier's write-behind worker
// count (default: the spill subsystem's own default). Negative values
// make RunPipeline return an error.
func WithPipelineSpillWorkers(n int) PipelineOption {
	return func(c *pipelineConfig) { c.spillWorkers = n }
}

// WithPipelineNoSpill disables the out-of-core tier: a partition pair
// still over the memory budget at maximum recursion depth makes
// RunPipeline return a *native.BudgetError instead of spilling to disk.
func WithPipelineNoSpill() PipelineOption {
	return func(c *pipelineConfig) { c.noSpill = true }
}

// WithPipelineSpillPageSize overrides the spill tier's page size in
// bytes (default: the spill subsystem's own default). Benchmarks use
// smaller pages to reduce page-rounding noise in I/O volumes; the value
// must satisfy the spill subsystem's bounds or the run fails when the
// spill tier engages.
func WithPipelineSpillPageSize(bytes int) PipelineOption {
	return func(c *pipelineConfig) { c.spillPageSize = bytes }
}

// WithPipelineHybrid enables the native join's adaptive hybrid policy:
// after the partition phase, pairs are ranked by measured build
// footprint, the largest prefix that fits the memory budget stays
// resident (joined in memory, claimed first), and only the overflow
// goes through the out-of-core tier — with oversized victims split on
// observed key-code frequency so the resident budget is never wasted on
// rows that cannot fit. On a service Env the run also samples the
// grant's advisory budget at each partition-pair claim and demotes
// not-yet-started resident pairs to disk when memory pressure shrinks
// the window, instead of restarting the query. Requires
// WithPipelineMemBudget to change anything.
func WithPipelineHybrid() PipelineOption {
	return func(c *pipelineConfig) { c.hybrid = true }
}

// WithBuildSide supplies a pre-built hash table (PrepareBuildSide) as
// the join's build side, skipping the run's build phase entirely: the
// probe stream runs over the shared, immutable table through private
// probe scratch, so any number of concurrent runs may pass the same
// handle. Native engine, streaming strategy only — RunPipeline returns
// an error if the engine is simulated, the fanout exceeds 1, or a
// build filter is present (the table was built unfiltered) — and the
// build relation must be the one the handle was prepared over.
func WithBuildSide(b *BuildSide) PipelineOption {
	return func(c *pipelineConfig) { c.build = b }
}

// WithTenant labels the run for the service Env's admission and
// fairness accounting (counters, shed errors, pool interleaving).
func WithTenant(name string) PipelineOption {
	return func(c *pipelineConfig) { c.tenant = name }
}

// WithTenantWeight biases the shared worker pool's round-robin toward
// this run's morsels: a weight-3 tenant claims up to three morsels per
// scheduling round where a weight-1 tenant claims one. Values < 1 mean
// 1. Ignored outside service mode.
func WithTenantWeight(w int) PipelineOption {
	return func(c *pipelineConfig) { c.weight = w }
}

// WithPlannedScratch declares the run's scratch footprint in bytes for
// admission on a service Env: the admitted query runs on a private
// arena window of exactly this size. 0 (the default) estimates the
// footprint from the plan and relations. A run that outgrows its
// window fails alone with an *OOMError; neighbors are unaffected.
func WithPlannedScratch(bytes uint64) PipelineOption {
	return func(c *pipelineConfig) { c.planned = bytes }
}

// PipelineResult reports one pipeline run. NOutput and KeySum describe
// the join's output whether or not aggregation ran (with aggregation
// they are recovered from the groups, which partition the join output).
type PipelineResult struct {
	NOutput int    // join output rows
	KeySum  uint64 // order-independent checksum of output build keys

	// Groups holds the aggregation result, sorted by key, when
	// WithAggregation was given; nil otherwise. Equal workloads produce
	// identical Groups on both engines.
	Groups []GroupStat

	Stats   Stats         // EngineSim: cycle breakdown of this run
	Elapsed time.Duration // EngineNative: wall clock of this run

	// Report carries the native join's execution detail: effective
	// fan-out, recursion depth, morsels executed, spill I/O and stalls,
	// spill failovers and rebuilds, and hybrid residency and demotion.
	// All zero on EngineSim.
	engine.Report

	// Service-mode accounting: how long admission queued the run and the
	// scratch window it was granted (0 for exclusive/simulated runs).
	// Both zero outside service mode.
	QueueWait     time.Duration
	AdmittedBytes uint64

	// Plan reports the strategy decision and its inputs when the planner
	// was consulted (WithStrategy); nil otherwise.
	Plan *PlanDecision
}

// RunPipeline executes build ⋈ probe — optionally filtered and
// aggregated — as a batch-operator pipeline on the selected engine.
// Both relations must belong to this Env. Batches are sized to the
// prefetch group size G, so operator handoff happens exactly at
// prefetch-group boundaries (the paper's section 5.4 observation).
//
// Per-run scratch (join output rings, morsel pipe buffers, staged
// aggregation rows) is scoped to the run and reclaimed before
// RunPipeline returns, so a resident Env sustains unlimited runs with
// stable arena usage. Memory exhaustion — the Env's capacity or a
// WithPipelineMemBudget no partitioning can satisfy — surfaces as an
// error with a usage breakdown, never a panic, including from morsel
// worker goroutines.
func (e *Env) RunPipeline(build, probe *Relation, opts ...PipelineOption) (PipelineResult, error) {
	return e.RunPipelineContext(context.Background(), build, probe, opts...)
}

// RunPipelineContext is RunPipeline under a context. Scans check it at
// every batch boundary (both backends), the native morsel join before
// each partition-pair claim, and the spill tier at page boundaries —
// so cancellation or deadline expiry stops the run within one batch or
// page of the event. A cancelled run returns a *CancelError that
// matches both ErrCancelled and the context's own error; the native
// join's cancellation also reports partition-pair progress.
func (e *Env) RunPipelineContext(ctx context.Context, build, probe *Relation, opts ...PipelineOption) (res PipelineResult, err error) {
	if build.env != e || probe.env != e {
		panic("hashjoin: relations belong to a different Env")
	}
	pc := pipelineConfig{engine: EngineSim, scheme: Group, fanout: 1}
	for _, o := range opts {
		o(&pc)
	}
	var cachedBuild *native.BuildSide
	if pc.build != nil {
		switch {
		case pc.build.env != e:
			panic("hashjoin: BuildSide belongs to a different Env")
		case pc.build.rel != build:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide handle was prepared over a different relation")
		case pc.engine != EngineNative:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide requires the native engine")
		case pc.hasFilter:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide cannot combine with WithBuildFilter (the table was built unfiltered)")
		case pc.fanout > 1:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide requires the streaming strategy (fanout 1), got fanout %d", pc.fanout)
		}
		cachedBuild = pc.build.bs
	}

	// Service mode routes the run through admission. Native runs are
	// granted a private scratch window and the shared worker pool;
	// simulated runs are exclusive tenants (the cycle simulator is
	// single-threaded and they scope scratch on the shared arena).
	a := e.mem.A
	var pool native.Pool
	var budgetNow func() int
	if e.svc != nil {
		req := sched.Request{Tenant: pc.tenant, Weight: pc.weight, Exclusive: pc.engine == EngineSim}
		if !req.Exclusive {
			req.Planned = pc.planned
			if req.Planned == 0 {
				req.Planned = plannedScratch(&pc, build, probe)
			}
		}
		g, aerr := e.svc.Admit(ctx, req)
		if aerr != nil {
			return PipelineResult{}, aerr
		}
		defer func() { g.Release(err) }()
		a = g.Arena()
		res.QueueWait = g.QueueWait()
		res.AdmittedBytes = g.Planned()
		if pc.engine == EngineNative {
			pool = e.svc.Pool()
			if pc.hybrid {
				// The grant's advisory budget is the mid-join pressure
				// signal: when neighbors queue, the controller shrinks it
				// and the hybrid join demotes unstarted resident pairs.
				budgetNow = g.BudgetNow
			}
		}
	}
	if pc.engine == EngineSim {
		e.simMu.Lock()
		defer e.simMu.Unlock()
	}

	buildNode := engine.Scan(build.rel)
	if pc.hasFilter {
		buildNode = engine.Filter(buildNode, engine.KeyBetween(pc.filterLo, pc.filterHi))
	}
	logical := engine.HashJoinTyped(buildNode, engine.Scan(probe.rel), pc.joinType)
	if pc.hasAgg {
		logical = engine.HashAggregate(logical, pc.aggValueOff, pc.aggGroups)
	}

	// WithStrategy engages the planner: Choose picks from the relations'
	// true cardinalities, the build footprint, the match-rate hint, and
	// the declared budget; a concrete strategy overrides the pick but
	// the decision still records it. The legacy path (no WithStrategy)
	// keeps the fanout-driven selection and reports no Plan.
	strategy, fanout := plan.Auto, pc.fanout
	if pc.strategySet {
		bw := build.rel.Schema.FixedWidth()
		stats := plan.Stats{
			BuildRows:      build.rel.NTuples,
			ProbeRows:      probe.rel.NTuples,
			BuildWidth:     bw,
			ProbeWidth:     probe.rel.Schema.FixedWidth(),
			BuildFootprint: native.BuildFootprint(build.rel.NTuples, bw),
			MatchRate:      pc.matchRate,
		}
		dec := plan.Choose(stats, pc.joinType, pc.memBudget)
		switch {
		case pc.strategy != plan.Auto && pc.strategy != dec.Strategy:
			planned := dec.Strategy
			dec.Strategy = pc.strategy
			if pc.strategy == plan.PartitionedHash {
				if dec.Fanout <= 1 {
					dec.Fanout = max(pc.fanout, 2)
				}
			} else {
				dec.Fanout = 1
			}
			dec.Reason = fmt.Sprintf("forced by WithStrategy(%v); planner preferred %v", pc.strategy, planned)
		case pc.build != nil && dec.Strategy != plan.StreamHash:
			// A prebuilt hash table pins the streaming strategy; the
			// planner's preference is recorded, not executed.
			planned := dec.Strategy
			dec.Strategy, dec.Fanout = plan.StreamHash, 1
			dec.Reason = fmt.Sprintf("prebuilt build side pins the streaming strategy (planner preferred %v)", planned)
		case pc.engine == EngineSim && dec.Strategy == plan.PartitionedHash:
			// The simulator executes single-table joins only; an
			// auto-planned partitioned pick degrades to streaming there.
			dec.Strategy, dec.Fanout = plan.StreamHash, 1
			dec.Reason = "sim backend runs single-table joins only (planner preferred partitioned)"
		}
		strategy, fanout = dec.Strategy, dec.Fanout
		res.Plan = &dec
	}

	cfg := engine.Config{
		Backend:       pc.engine,
		Mem:           e.mem,
		A:             a,
		Scheme:        pc.scheme,
		Params:        pc.params,
		Strategy:      strategy,
		Fanout:        fanout,
		Workers:       pc.workers,
		Pool:          pool,
		Tenant:        pc.tenant,
		Weight:        pc.weight,
		MemBudget:     pc.memBudget,
		SpillDir:      pc.spillDir,
		SpillWorkers:  pc.spillWorkers,
		SpillPageSize: pc.spillPageSize,
		NoSpill:       pc.noSpill,
		Hybrid:        pc.hybrid,
		BudgetNow:     budgetNow,
		Build:         cachedBuild,
		Report:        &res.Report,
		Ctx:           ctx,
	}

	var before Stats
	if pc.engine == EngineSim {
		before = e.mem.S.Stats()
	}
	start := time.Now()
	root, err := engine.Compile(logical, cfg)
	if err != nil {
		return PipelineResult{}, err
	}
	if pc.hasAgg {
		groups, gerr := engine.Groups(root, a)
		if gerr != nil {
			err = native.WrapCancel(gerr, time.Since(start))
			return PipelineResult{}, err
		}
		for _, g := range groups {
			res.Groups = append(res.Groups, GroupStat{Key: g.Key, Count: g.Count, Sum: g.Sum})
			res.NOutput += int(g.Count)
			res.KeySum += uint64(g.Key) * g.Count
		}
	} else {
		r, rerr := engine.Run(root, a)
		if rerr != nil {
			err = native.WrapCancel(rerr, time.Since(start))
			return PipelineResult{}, err
		}
		res.NOutput, res.KeySum = r.NRows, r.KeySum
	}
	switch pc.engine {
	case EngineSim:
		res.Stats = e.mem.S.Stats().Sub(before)
	case EngineNative:
		res.Elapsed = time.Since(start)
	}
	return res, nil
}

// plannedScratch estimates a native run's arena scratch for admission.
// Without the workload's ground truth the output ring assumes a
// moderately skewed 8 matches per probe tuple; heavier skew should
// declare WithPlannedScratch.
func plannedScratch(pc *pipelineConfig, build, probe *Relation) uint64 {
	s := engine.Scratch{
		OutWidth:      build.rel.Schema.FixedWidth() + probe.rel.Schema.FixedWidth(),
		Batch:         pc.params.G,
		Workers:       pc.workers,
		RingMatches:   8,
		MemBudget:     pc.memBudget,
		NoSpill:       pc.noSpill,
		SpillWorkers:  pc.spillWorkers,
		SpillPageSize: pc.spillPageSize,
	}
	if pc.hasAgg {
		s.AggRows = build.rel.NTuples
	}
	return engine.PlannedScratch(s)
}
