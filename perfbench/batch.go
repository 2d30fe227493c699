package main

// The batch workloads: one process, one Env, the public RunPipeline and
// PrepareBuildSide entry points called back to back from one goroutine.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hashjoin"
	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/native"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
)

type batchConfig struct {
	rel     relSpec
	fanout  int // WithPipelineFanout
	workers int // WithPipelineWorkers; 0 = GOMAXPROCS
	agg     bool
	budget  int // WithPipelineMemBudget with the hybrid policy; 0 = unbudgeted
}

// Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
var batchWorkloads = map[string]batchConfig{
	// The paper's join phase: a ~60 MB table far beyond L2, probed by
	// 1M tuples through one resident table.
	"stream_probe": {
		rel:    relSpec{nBuild: 500_000, nProbe: 1_000_000, tuple: 100, matches: 2},
		fanout: 1,
	},
	// The budgeted path: recursive re-partitioning, hybrid planning and
	// spill I/O under a 256 KiB budget over Zipf-skewed build keys, then
	// aggregation by build key and the sort of the groups. Each of the
	// 64 partition tables fits L2, so prefetching has little to hide:
	// the control for stream_probe. One worker: two ran the queries 14%
	// faster but did not narrow the run-to-run spread (0.17 against 0.16
	// over six alternating 12 s runs each).
	"spill_skew": {
		rel:    relSpec{nBuild: 100_000, nProbe: 200_000, tuple: 64, zipfS: 1.25, zipfKeys: 65_536},
		fanout: 64, workers: 1, agg: true, budget: 256 << 10,
	},
}

type scheme struct {
	name string
	pub  hashjoin.Scheme
	nat  native.Scheme
}

var schemes = []scheme{
	{"baseline", hashjoin.Baseline, native.Baseline},
	{"group", hashjoin.Group, native.Group},
	{"pipelined", hashjoin.Pipelined, native.Pipelined},
}

func (c batchConfig) pipelineOpts(s hashjoin.Scheme, spillDir string) []hashjoin.PipelineOption {
	opts := []hashjoin.PipelineOption{
		hashjoin.WithEngine(hashjoin.EngineNative),
		hashjoin.WithPipelineScheme(s),
		hashjoin.WithPipelineFanout(c.fanout),
		hashjoin.WithPipelineWorkers(c.workers),
	}
	if c.agg {
		opts = append(opts, hashjoin.WithAggregation(4, c.rel.nBuild))
	}
	if c.budget > 0 {
		opts = append(opts, hashjoin.WithPipelineMemBudget(c.budget), hashjoin.WithPipelineSpillDir(spillDir),
			hashjoin.WithPipelineHybrid())
	}
	return opts
}

// arenaBytes sizes an arena for the pair plus the pipeline's scratch
// (aggregation staging, join output rings, spill page pool).
func (c batchConfig) arenaBytes() uint64 {
	return relBytes(c.rel.nBuild, c.rel.tuple) + relBytes(c.rel.nProbe, c.rel.tuple) +
		uint64(c.rel.nBuild)*engine.AggTupleWidth + 16<<20
}

func (in *inputs) checkPipeline(res hashjoin.PipelineResult, agg bool) error {
	if res.NOutput != in.rows || res.KeySum != in.keySum {
		return fmt.Errorf("pipeline returned rows=%d keysum=%d, want rows=%d keysum=%d",
			res.NOutput, res.KeySum, in.rows, in.keySum)
	}
	if !agg {
		return nil
	}
	if len(res.Groups) != len(in.groups) {
		return fmt.Errorf("pipeline returned %d groups, want %d", len(res.Groups), len(in.groups))
	}
	for i, g := range res.Groups {
		if e := in.groups[i]; g.Key != e.key || g.Count != e.count || g.Sum != e.sum {
			return fmt.Errorf("group %d is (%d, %d, %d), want (%d, %d, %d)",
				i, g.Key, g.Count, g.Sum, e.key, e.count, e.sum)
		}
	}
	return nil
}

type batchState struct {
	in           *inputs
	env          *hashjoin.Env
	build, probe *hashjoin.Relation
}

// setupBatch generates the pair from the seed and loads it into a fresh
// Env: the work a user does before the first query. It returns the time
// generation took and the time of the whole set-up.
func setupBatch(c batchConfig, seed int64) (st *batchState, gen, total time.Duration) {
	start := time.Now()
	in := generate(c.rel, seed)
	gen = time.Since(start)
	env := hashjoin.NewEnv(hashjoin.WithSmallHierarchy(), hashjoin.WithCapacity(c.arenaBytes()))
	build, probe := in.load(env)
	return &batchState{in: in, env: env, build: build, probe: probe}, gen, time.Since(start)
}

func runBatch(c batchConfig, o options, tr *tracer) (*report, error) {
	rep := newReport(o.units)
	spillDir := filepath.Join(o.scratch, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	var st *batchState
	var setups, gens []float64
	for start := time.Now(); moreSetups(len(setups), start); {
		st = nil // drop the previous Env before building the next
		settle()
		var gen, total time.Duration
		st, gen, total = setupBatch(c, o.seed)
		gens = append(gens, gen.Seconds())
		setups = append(setups, total.Seconds())
	}

	query := func(s hashjoin.Scheme) (res hashjoin.PipelineResult, start, end time.Time, ok bool) {
		start = time.Now()
		res, err := st.env.RunPipeline(st.build, st.probe, c.pipelineOpts(s, spillDir)...)
		end = time.Now()
		if err == nil {
			err = st.in.checkPipeline(res, c.agg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: query: %v\n", err)
		}
		rep.attempt(err == nil)
		return res, start, end, err == nil
	}
	load := func() (d time.Duration, ok bool) {
		t := time.Now()
		bs, err := st.env.PrepareBuildSide(context.Background(), st.build, hashjoin.WithEngine(hashjoin.EngineNative))
		d = time.Since(t)
		if err == nil && bs.Rows() != c.rel.nBuild {
			err = fmt.Errorf("build side holds %d rows, want %d", bs.Rows(), c.rel.nBuild)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: load: %v\n", err)
		}
		rep.attempt(err == nil)
		return d, err == nil
	}
	// Warm-up, untimed, on the timed loop's own mix: the first runs pay
	// first-touch page faults in the arena and the Go heap that no later
	// run pays, and the heap takes a few collections to reach its steady
	// size.
	for i, end := 0, time.Now().Add(warmup); i < 2 || time.Now().Before(end); i++ {
		query(hashjoin.Group)
		load()
	}

	if tr != nil {
		return rep, traceBatch(c, o, st, tr, rep, spillDir, gens, query)
	}

	// peak_rss_mb is the median over queries of the high-water RSS
	// during each query, so where a collection happens to fall in one
	// run cannot move it.
	var queries, loads, peaks []float64
	for deadline := time.Now().Add(o.seconds); time.Now().Before(deadline); {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		if _, t0, t1, ok := query(hashjoin.Group); ok {
			queries = append(queries, ms(t1.Sub(t0)))
			peak, err := peakRSSMiB(os.Getpid())
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, peak)
		}
		if d, ok := load(); ok {
			loads = append(loads, ms(d))
		}
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.set("group_mtps", mtps(c.rel.nProbe, queries), len(queries))
	rep.set("query_ms_p50", median(queries), len(queries))
	rep.set("load_ms_p50", median(loads), len(loads))
	rep.set("qps", rate(len(queries)+len(loads), (sum(queries)+sum(loads))/1e3), len(queries)+len(loads))
	rep.set("peak_rss_mb", median(peaks), len(peaks))
	return rep, nil
}

// mtps is probe tuples per second, in millions, at the median latency.
func mtps(probeRows int, latMS []float64) float64 {
	return rate(probeRows, median(latMS)*1e3) // rows per microsecond = Mrows/s
}

// rate divides with 0 for an empty denominator, so a run whose every
// operation failed still prints a result.
func rate(n int, per float64) float64 {
	if per <= 0 {
		return 0
	}
	return float64(n) / per
}

// kernelBufs are the traced kernel calls' entry buffers, reused across
// rounds so later rounds do not pay first-touch faults the first paid.
type kernelBufs struct{ build, probe []native.Entry }

// traceBatch is the traced run: each op calls one layer entry point per
// span, over the same inputs, and the per-layer metrics are medians of
// the spans' self times.
func traceBatch(c batchConfig, o options, st *batchState, tr *tracer, rep *report, spillDir string,
	gens []float64, query func(hashjoin.Scheme) (hashjoin.PipelineResult, time.Time, time.Time, bool)) error {
	a := arena.New(c.arenaBytes())
	ib, ip := st.in.loadInternal(a)
	var bufs kernelBufs
	var aggPlan *engine.Node
	if c.agg {
		aggPlan = engine.HashAggregate(engine.HashJoin(engine.Scan(ib), engine.Scan(ip)), 4, c.rel.nBuild)
	}
	var untraced, sortMS, tableBytes []float64
	var last hashjoin.PipelineResult // the latest verified Group pipeline
	settle()

	for round, deadline := 0, time.Now().Add(o.seconds); time.Now().Before(deadline); round++ {
		for i := range schemes {
			s := schemes[(round+i)%len(schemes)]
			op := tr.beginOp("op[" + s.name + "]")

			res, t0, t1, ok := query(s.pub)
			tr.add(op, "hashjoin.RunPipeline["+s.name+"]", t0, t1)
			if ok && s.nat == native.Group {
				last = res
			}

			scope := a.Scope() // the spill tier's page pool comes from the arena
			j := tr.start(op, "native.Joiner.Join["+s.name+"]")
			r, err := native.NewJoiner().Join(ib, ip, native.Config{
				Scheme: s.nat, Fanout: c.fanout, Workers: c.workers,
				MemBudget: c.budget, Hybrid: c.budget > 0, SpillDir: spillDir,
			})
			tr.end(j)
			scope.Release()
			if err == nil && (r.NOutput != st.in.rows || r.KeySum != st.in.keySum) {
				err = fmt.Errorf("rows=%d keysum=%d, want rows=%d keysum=%d", r.NOutput, r.KeySum, st.in.rows, st.in.keySum)
			}
			rep.attempt(err == nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: native.Joiner.Join: %v\n", err)
			}
			tr.attr(j, "partition_ms", ms(r.PartitionTime))
			tr.attr(j, "join_ms", ms(r.JoinTime))

			tb, err := probeKernel(tr, op, s, c, a.Data(), ib, ip, st.in, &bufs)
			rep.attempt(err == nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: kernel: %v\n", err)
			} else if s.nat == native.Group {
				tableBytes = append(tableBytes, tb)
			}

			if aggPlan != nil && s.nat == native.Group {
				d, err := engineSort(tr, op, c, a, aggPlan, st.in, spillDir)
				rep.attempt(err == nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: engine: %v\n", err)
				} else {
					sortMS = append(sortMS, d)
				}
			}
			if c.budget > 0 && s.nat == native.Group {
				err := spillPages(tr, op, a, ib, spillDir)
				rep.attempt(err == nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: spill: %v\n", err)
				}
			}
			tr.end(op)
		}
		// The same Group pipeline with no span around it: the trace's
		// own cost is the difference.
		if _, t0, t1, ok := query(hashjoin.Group); ok {
			untraced = append(untraced, ms(t1.Sub(t0)))
		}
	}

	pipeMS := func(s string) []float64 { return tr.byName("hashjoin.RunPipeline["+s+"]", "") }
	probe := map[string]float64{}
	for _, s := range schemes {
		spans := tr.byName("native.probe["+s.name+"]", "")
		probe[s.name] = median(spans)
		rep.set("native.probe_ms."+s.name, probe[s.name], len(spans))
	}
	for _, s := range []string{"group", "pipelined"} {
		rep.set("native.probe_speedup."+s, ratio(probe["baseline"], probe[s]), 1)
	}
	rep.set("baseline_mtps", mtps(c.rel.nProbe, pipeMS("baseline")), len(pipeMS("baseline")))
	rep.set("pipelined_mtps", mtps(c.rel.nProbe, pipeMS("pipelined")), len(pipeMS("pipelined")))
	builds := tr.byName("native.BuildRows[group]", "")
	rep.set("native.build_ms", median(builds), len(builds))
	rep.set("native.table_bytes_per_row", median(tableBytes)/float64(c.rel.nBuild), len(tableBytes))
	part := tr.byName("native.Joiner.Join[group]", "partition_ms")
	rep.set("native.partition_ms", median(part), len(part))
	rep.set("native.join_ms", median(tr.byName("native.Joiner.Join[group]", "join_ms")), len(part))
	call := median(tr.byName("native.Joiner.Join[group]", ""))
	rep.set("native.call_ms", call, len(part))
	rep.set("native.recursion_depth", float64(last.JoinRecursionDepth), 1)
	rep.set("native.spilled_pairs", float64(last.SpilledPartitions), 1)
	rep.set("native.resident_pairs", float64(last.ResidentPartitions), 1)
	rep.set("native.demoted_pairs", float64(last.DemotedPartitions), 1)
	pipe := median(pipeMS("group"))
	rep.set("engine.self_ms", pipe-call, len(pipeMS("group")))
	rep.set("engine.self_share", ratio(pipe-call, pipe), len(pipeMS("group")))
	rep.set("engine.sort_ms", median(sortMS), len(sortMS))
	inBytes := float64((c.rel.nBuild + c.rel.nProbe) * c.rel.tuple)
	rep.set("spill.write_amp", float64(last.SpillBytesWritten)/inBytes, 1)
	rep.set("spill.read_amp", float64(last.SpillBytesRead)/inBytes, 1)
	rep.set("spill.write_stall_ms", ms(last.SpillWriteStall), 1)
	rep.set("spill.read_stall_ms", ms(last.SpillReadStall), 1)
	for _, dir := range []string{"write", "read"} {
		mb := tr.byName("spill."+dir, "mb")
		secs := tr.byName("spill."+dir, "")
		rates := make([]float64, len(mb))
		for i := range mb {
			rates[i] = ratio(mb[i], secs[i]/1e3)
		}
		rep.set("spill.page_"+dir+"_mbps", median(rates), len(rates))
	}
	rep.set("workload.generate_s", median(gens), len(gens))
	rep.set("trace.overhead_ratio", ratio(median(untraced), median(pipeMS("group"))), len(untraced))
	rep.set("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probeKernel times the native build and probe kernels directly:
// Flatten both relations, build a row table per partition with
// BuildRows, and probe it in G-sized batches into a counting sink. It
// returns the tables' summed footprint in bytes.
func probeKernel(tr *tracer, op int, s scheme, c batchConfig, data []byte,
	ib, ip *storage.Relation, in *inputs, bufs *kernelBufs) (float64, error) {
	k := tr.start(op, "native.kernel["+s.name+"]")
	defer tr.end(k)
	f := tr.start(k, "native.Flatten")
	bufs.build = native.Flatten(ib, bufs.build)
	bufs.probe = native.Flatten(ip, bufs.probe)
	tr.end(f)
	// One table per join partition, sized like the join's own tables.
	bparts, pparts := radix(bufs.build, c.fanout), radix(bufs.probe, c.fanout)
	workers := 0 // GOMAXPROCS, as PrepareBuildSide builds
	if c.fanout > 1 {
		workers = 1 // a partitioned join builds each pair on one worker
	}

	b := tr.start(k, "native.BuildRows["+s.name+"]")
	sides := make([]*native.BuildSide, len(bparts))
	for i, part := range bparts {
		bs, err := native.BuildRows(data, part, c.rel.tuple, native.BuildConfig{Scheme: s.nat, Workers: workers})
		if err != nil {
			tr.end(b)
			return 0, err
		}
		sides[i] = bs
	}
	tr.end(b)

	p := tr.start(k, "native.probe["+s.name+"]")
	count, n, keySum := 0, 0, uint64(0)
	sink := func([]byte, uint64) { count++ }
	for i, part := range pparts {
		pr := sides[i].NewProber(s.nat, 0, 0)
		for lo, g := 0, pr.G(); lo < len(part); lo += g {
			pr.ProbeBatch(part[lo:min(lo+g, len(part))], sink)
		}
		n += pr.NOutput()
		keySum += pr.KeySum()
	}
	tr.end(p)
	if count != in.rows || n != in.rows || keySum != in.keySum {
		return 0, fmt.Errorf("%s probe counted %d sink rows, %d rows keysum %d, want %d rows keysum %d",
			s.name, count, n, keySum, in.rows, in.keySum)
	}
	total := 0
	for _, bs := range sides {
		total += bs.Bytes()
	}
	return float64(total), nil
}

// radix splits entries into fanout parts on the hash code's high bits.
// The row table buckets on the low bits, so a part's table keeps its
// full bucket spread, as a partition pair's table does in the join.
func radix(entries []native.Entry, fanout int) [][]native.Entry {
	if fanout <= 1 {
		return [][]native.Entry{entries}
	}
	shift := 32
	for f := fanout; f > 1; f >>= 1 {
		shift--
	}
	counts := make([]int, fanout+1)
	for _, e := range entries {
		counts[e.Code>>shift+1]++
	}
	for i := 1; i <= fanout; i++ {
		counts[i] += counts[i-1]
	}
	out := make([]native.Entry, len(entries))
	cursor := append([]int(nil), counts[:fanout]...)
	for _, e := range entries {
		p := e.Code >> shift
		out[cursor[p]] = e
		cursor[p]++
	}
	parts := make([][]native.Entry, fanout)
	for i := range parts {
		parts[i] = out[counts[i]:counts[i+1]]
	}
	return parts
}

// engineSort runs the same compiled aggregation plan through engine.Run
// (drain only) and engine.Groups (drain, decode, sort by key) and
// returns the difference, the engine's sort cost.
func engineSort(tr *tracer, op int, c batchConfig, a *arena.Arena, plan *engine.Node, in *inputs, spillDir string) (float64, error) {
	cfg := engine.Config{
		Backend: engine.Native, A: a, Scheme: core.SchemeGroup,
		Fanout: c.fanout, Workers: c.workers, MemBudget: c.budget, Hybrid: c.budget > 0, SpillDir: spillDir,
	}
	r := tr.start(op, "engine.Run")
	root, err := engine.Compile(plan, cfg)
	if err != nil {
		tr.end(r)
		return 0, err
	}
	res, err := engine.Run(root, a)
	tr.end(r)
	if err != nil {
		return 0, err
	}
	if res.NRows != len(in.groups) {
		return 0, fmt.Errorf("engine.Run drained %d groups, want %d", res.NRows, len(in.groups))
	}
	g := tr.start(op, "engine.Groups")
	root, err = engine.Compile(plan, cfg)
	if err != nil {
		tr.end(g)
		return 0, err
	}
	groups, err := engine.Groups(root, a)
	tr.end(g)
	if err != nil {
		return 0, err
	}
	if len(groups) != len(in.groups) {
		return 0, fmt.Errorf("engine.Groups returned %d groups, want %d", len(groups), len(in.groups))
	}
	for i, gr := range groups {
		if e := in.groups[i]; gr.Key != e.key || gr.Count != e.count || gr.Sum != e.sum {
			return 0, fmt.Errorf("engine.Groups group %d is (%d, %d, %d), want (%d, %d, %d)",
				i, gr.Key, gr.Count, gr.Sum, e.key, e.count, e.sum)
		}
	}
	return tr.durMS(g) - tr.durMS(r), nil
}

// spillPages writes the build relation through a spill Manager as one
// partition and reads it back, timing the page I/O path on its own.
func spillPages(tr *tracer, op int, a *arena.Arena, build *storage.Relation, dir string) (err error) {
	scope := a.Scope() // the Manager's page pool comes from the arena
	defer scope.Release()
	m, err := spill.NewManager(spill.Config{Dir: dir, A: a})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}()
	w := tr.start(op, "spill.write")
	wr, err := m.NewWriter()
	if err == nil {
		build.Each(func(tuple []byte, code uint32) {
			if err == nil {
				err = wr.Append(tuple, code)
			}
		})
	}
	if err == nil {
		err = wr.Finish()
	}
	tr.end(w)
	if err != nil {
		return err
	}
	tr.attr(w, "mb", float64(m.Stats().BytesWritten)/1e6)

	r := tr.start(op, "spill.read")
	rd := wr.OpenReader()
	tuples := 0
	for {
		pg, ok, rerr := rd.Next()
		if rerr != nil || !ok {
			err = rerr
			break
		}
		tuples += pg.NTuples()
		m.Release(pg)
	}
	rd.Close()
	tr.end(r)
	if err != nil {
		return err
	}
	tr.attr(r, "mb", float64(m.Stats().BytesRead)/1e6)
	if tuples != build.NTuples {
		return fmt.Errorf("spill read back %d tuples, want %d", tuples, build.NTuples)
	}
	return nil
}
