package native

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
	"hashjoin/internal/spill"
	"hashjoin/internal/workload"
)

// TestSubFanoutOverflowRegression pins the divide-form fan-out search
// against the integer overflow the multiplied form suffered: with a
// near-MaxInt budget, budget*sub wraps negative and the old comparison
// need > budget*sub held forever, inflating the sub-fan-out to its 256
// cap for a pair that two-way or four-way splitting already brings
// under budget.
func TestSubFanoutOverflowRegression(t *testing.T) {
	// ceil(MaxInt/2) is one over MaxInt/2, so a two-way split still
	// exceeds the budget and a four-way split fits: the answer is 4.
	// The overflowing comparison returned 256.
	if got := subFanoutFor(math.MaxInt, math.MaxInt/2, 32); got != 4 {
		t.Fatalf("subFanoutFor(MaxInt, MaxInt/2, 32) = %d, want 4", got)
	}
	// The bits-left cap still applies after the search.
	if got := subFanoutFor(math.MaxInt, 1, 3); got != 8 {
		t.Fatalf("subFanoutFor(MaxInt, 1, 3) = %d, want 8", got)
	}
	if got := subFanoutFor(1024, 512, 32); got != 2 {
		t.Fatalf("subFanoutFor(1024, 512, 32) = %d, want 2", got)
	}
	// overBudget is exact at the boundary: equality fits.
	if overBudget(math.MaxInt, math.MaxInt, 1) {
		t.Fatal("overBudget(MaxInt, MaxInt, 1) = true, want false")
	}
	if !overBudget(math.MaxInt, math.MaxInt/2, 2) {
		t.Fatal("overBudget(MaxInt, MaxInt/2, 2) = false, want true")
	}
	// fanoutFor shares the guard: a near-MaxInt budget keeps fan-out 1.
	if got := fanoutFor(100000, 8, math.MaxInt/2); got != 1 {
		t.Fatalf("fanoutFor(100000, 8, MaxInt/2) = %d, want 1", got)
	}
}

// TestJoinPairBudgetDepthOnError pins the error path's depth reporting:
// when one subtree recurses deep and succeeds before a sibling gives up
// shallow, both the returned depth and the *BudgetError must carry the
// deepest level actually reached, not just the failing sub-call's. The
// workload: three entries whose codes differ only at bits 12-13 force a
// successful depth-6 descent in sub-bucket 0 (one-bit splits from shift
// 8 separate them at bit 12), while 257 copies of code 0xFFFFFFFF in
// sub-bucket 255 — processed after the success — exhaust all 32 hash
// bits in 8-bit splits and fail at depth 4.
func TestJoinPairBudgetDepthOnError(t *testing.T) {
	a := arena.New(1 << 20)
	codes := []uint32{0x0, 0x1000, 0x2000}
	for i := 0; i < 257; i++ {
		codes = append(codes, 0xFFFFFFFF)
	}
	es := mkEntries(t, a, codes)
	j := newPairJoiner()
	j.data = a.Data()
	j.width = 8
	budget := pairFootprint(2, 8) // two entries fit, three do not
	cfg := Config{Scheme: Group, MemBudget: budget, NoSpill: true}.normalized()
	j.g, j.d = cfg.G, cfg.D

	depth, err := j.joinPairBudget(es, es, 0, cfg, 0)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T (%v), want *BudgetError", err, err)
	}
	if depth != 6 {
		t.Fatalf("returned depth = %d, want 6 (deepest successful subtree)", depth)
	}
	if be.Depth != 6 {
		t.Fatalf("BudgetError.Depth = %d, want 6 (deepest level reached)", be.Depth)
	}
}

// TestChunkPagesUsesConfiguredPageSize asserts the invariant satellite
// fix: the chunk budget arithmetic derives from the page size the
// Manager is actually configured with, not a hard-coded default, so a
// page-size override can never over-pin the budget.
func TestChunkPagesUsesConfiguredPageSize(t *testing.T) {
	perChunk := func(pageSize, width, budget int) int {
		perPage := pageSize + spill.PageCapacity(pageSize, width)*(entrySize+rowHdrSize+width+16)
		n := budget / perPage
		if n < 1 {
			n = 1
		}
		if n > SpillChunkPagesCap {
			n = SpillChunkPagesCap
		}
		return n
	}

	a := arena.New(16 << 20)
	sp := &spillState{
		a: a, dir: t.TempDir(), workers: 1,
		buildWidth: 8, probeWidth: 8,
		budget: 1 << 20, pageSize: 4096,
	}
	if got, want := sp.chunkPages(), perChunk(4096, 8, 1<<20); got != want {
		t.Fatalf("chunkPages with 4K pages = %d, want %d", got, want)
	}
	m, err := sp.manager()
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	if m.PageSize() != 4096 {
		t.Fatalf("Manager page size = %d, want the configured 4096", m.PageSize())
	}
	// The invariant: chunk arithmetic and Manager agree on the page size.
	if got, want := sp.chunkPages(), perChunk(m.PageSize(), sp.buildWidth, sp.budget); got != want {
		t.Fatalf("chunkPages = %d, want %d derived from Manager page size %d", got, want, m.PageSize())
	}
	if _, _, err := sp.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	// Zero pageSize (older struct literals, no knob) keeps the default.
	sp0 := &spillState{buildWidth: 8, budget: 1 << 20}
	if got, want := sp0.chunkPages(), perChunk(spill.DefaultPageSize, 8, 1<<20); got != want {
		t.Fatalf("chunkPages with default pages = %d, want %d", got, want)
	}
}

// hybridSpec is a Zipf build-side workload whose hottest ranks overflow
// the test budget while the cold tail stays resident, so every hybrid
// run crosses the resident/spilled boundary in both directions.
var hybridSpec = workload.Spec{
	NBuild: 4000, TupleSize: 32, ZipfS: 1.2, ZipfKeys: 64, Seed: 9,
}

const hybridBudget = 32 << 10

func hybridCfg(dir string) Config {
	return Config{
		Scheme: Group, Fanout: 8, Workers: 2,
		MemBudget: hybridBudget, SpillDir: dir, Hybrid: true,
	}
}

// TestJoinHybridZipfParity runs the Zipf boundary workload through the
// hybrid tier and checks exact output parity against the unbudgeted
// reference and the spill-everything tier, that pairs actually landed
// on both sides of the boundary, and that the hybrid join's spill I/O
// never exceeds the spill-everything tier's.
func TestJoinHybridZipfParity(t *testing.T) {
	a := arena.New(workload.ArenaBytesFor(hybridSpec) + 4<<20)
	pair := workload.Generate(a, hybridSpec)
	dir := t.TempDir()
	base := fault.Goroutines()
	mark := a.Used()

	jn := NewJoiner()
	ref, err := jn.Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 8})
	if err != nil {
		t.Fatalf("reference join: %v", err)
	}
	if ref.NOutput != pair.ExpectedMatches || ref.KeySum != pair.KeySum {
		t.Fatalf("reference join got (%d, %d), want (%d, %d)",
			ref.NOutput, ref.KeySum, pair.ExpectedMatches, pair.KeySum)
	}

	a.Truncate(mark)
	cfg := hybridCfg(dir)
	cfg.Hybrid = false
	grace, err := jn.Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("spill-everything join: %v", err)
	}
	if grace.NOutput != ref.NOutput || grace.KeySum != ref.KeySum {
		t.Fatalf("spill-everything join got (%d, %d), want (%d, %d)",
			grace.NOutput, grace.KeySum, ref.NOutput, ref.KeySum)
	}
	if grace.SpilledPartitions == 0 {
		t.Fatal("spill-everything run spilled nothing; workload does not cross the boundary")
	}

	a.Truncate(mark)
	hr, err := jn.Join(pair.Build, pair.Probe, hybridCfg(dir))
	if err != nil {
		t.Fatalf("hybrid join: %v", err)
	}
	if hr.NOutput != ref.NOutput || hr.KeySum != ref.KeySum {
		t.Fatalf("hybrid join got (%d, %d), want (%d, %d)",
			hr.NOutput, hr.KeySum, ref.NOutput, ref.KeySum)
	}
	if hr.Hybrid.ResidentPairs == 0 || hr.Hybrid.SpilledPairs == 0 {
		t.Fatalf("hybrid pairs resident=%d spilled=%d; want both sides of the boundary",
			hr.Hybrid.ResidentPairs, hr.Hybrid.SpilledPairs)
	}
	if hr.SpilledPartitions == 0 {
		t.Fatal("hybrid run never reached the disk tier")
	}
	hio := hr.SpillBytesWritten + hr.SpillBytesRead
	gio := grace.SpillBytesWritten + grace.SpillBytesRead
	if hio > gio {
		t.Fatalf("hybrid spill I/O %d exceeds spill-everything %d", hio, gio)
	}
	if hio == 0 || gio == 0 {
		t.Fatalf("degenerate I/O volumes: hybrid %d, spill-everything %d", hio, gio)
	}
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dir)
}

// TestJoinHybridDemotion shrinks the advisory budget after the first
// pair claim — the multi-tenant pressure signal — and checks that
// planned-resident pairs are demoted to the out-of-core path without
// restarting the join: exact parity, demotions accounted, no leaks.
func TestJoinHybridDemotion(t *testing.T) {
	a := arena.New(workload.ArenaBytesFor(hybridSpec) + 4<<20)
	pair := workload.Generate(a, hybridSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	var claims atomic.Int64
	cfg := hybridCfg(dir)
	cfg.Workers = 1 // deterministic claim order: one pair per sample
	cfg.BudgetNow = func() int {
		if claims.Add(1) == 1 {
			return hybridBudget
		}
		return pairFootprint(4, 32) // a handful of entries: everything demotes
	}
	r, err := Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("hybrid join under pressure: %v", err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("demoted join got (%d, %d), want (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if r.Hybrid.DemotedPairs == 0 || r.Hybrid.BytesDemoted == 0 {
		t.Fatalf("no demotions recorded (demoted=%d bytes=%d) despite the shrunken budget",
			r.Hybrid.DemotedPairs, r.Hybrid.BytesDemoted)
	}
	if r.SpilledPartitions == 0 {
		t.Fatal("demoted pairs never reached the disk tier")
	}
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dir)
}

// TestJoinHybridDemotionFault injects a spill-write fault into a
// demotion mid-join: the demoted pair's first page write fails, and the
// join must surface exactly one typed error with no partial output, no
// leaked goroutines, and an empty spill directory — then work again.
func TestJoinHybridDemotionFault(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(hybridSpec) + 4<<20)
	pair := workload.Generate(a, hybridSpec)
	dir := t.TempDir()
	base := fault.Goroutines()
	mark := a.Used()

	var claims atomic.Int64
	cfg := hybridCfg(dir)
	cfg.Workers = 1
	cfg.BudgetNow = func() int {
		if claims.Add(1) == 1 {
			return hybridBudget
		}
		return pairFootprint(4, 32)
	}
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError})
	jn := NewJoiner()
	r, err := jn.Join(pair.Build, pair.Probe, cfg)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v, want injected-fault class", err)
	}
	if r.NOutput != 0 || r.KeySum != 0 {
		t.Fatalf("failed join leaked partial output (%d, %d)", r.NOutput, r.KeySum)
	}
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dir)

	fault.Reset()
	a.Truncate(mark)
	claims.Store(0)
	r2, err := jn.Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("join after injected fault: %v", err)
	}
	if r2.NOutput != pair.ExpectedMatches || r2.KeySum != pair.KeySum {
		t.Fatalf("post-fault join got (%d, %d), want (%d, %d)",
			r2.NOutput, r2.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	fault.CheckNoFiles(t, dir)
}
