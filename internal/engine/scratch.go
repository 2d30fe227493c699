package engine

import (
	"runtime"

	"hashjoin/internal/native"
	"hashjoin/internal/spill"
)

// Scratch describes a native pipeline run for PlannedScratch: the shape
// of its output rows and the knobs that size its per-run buffers.
type Scratch struct {
	OutWidth    int // bytes per joined output row
	Batch       int // operator batch size G; below native.DefaultG counts as DefaultG
	Workers     int // morsel workers; < 1 means GOMAXPROCS
	RingMatches int // output-ring rows reserved per probe tuple; < 1 means 1
	AggRows     int // rows the aggregate stages (0: no aggregation)

	// The spill tier's page pool counts only when it can engage: a
	// positive MemBudget and NoSpill unset. Zero SpillWorkers and
	// SpillPageSize select the spill package defaults, as they do in
	// Config.
	MemBudget     int
	NoSpill       bool
	SpillWorkers  int
	SpillPageSize int
}

// PlannedScratch estimates the arena scratch one compiled pipeline run
// claims beyond its relations: the streaming join's output ring (one
// probe batch's matches), the morsel pipe buffers (2·workers+4 batches
// of output rows), the aggregate's staging block, the spill tier's page
// pool when it can engage, and page-rounding slack. Scoped allocation
// reclaims all of it between runs, so this bounds the steady-state
// high-water mark. Service admission grants it as the run's window; the
// CLIs size their arenas with it.
func PlannedScratch(s Scratch) uint64 {
	batch := max(s.Batch, native.DefaultG)
	workers := s.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	outWidth := uint64(s.OutWidth)
	ring := uint64(batch*max(s.RingMatches, 1)) * outWidth
	pipeBufs := uint64(2*workers+4) * uint64(batch) * outWidth
	aggStaging := uint64(s.AggRows) * AggTupleWidth
	return ring + pipeBufs + aggStaging + spillPoolBytes(s) + (64 << 10)
}

// spillPoolBytes over-approximates the page pool the out-of-core tier
// claims: chunk pages plus 3·workers+4 write/read working buffers, all
// of the configured page size. The tier divides the budget by the page
// size plus per-tuple table overhead; dividing by the page size alone
// over-counts the chunk, which is the safe direction.
func spillPoolBytes(s Scratch) uint64 {
	if s.MemBudget <= 0 || s.NoSpill {
		return 0
	}
	pageSize := s.SpillPageSize
	if pageSize <= 0 {
		pageSize = spill.DefaultPageSize
	}
	workers := s.SpillWorkers
	if workers < 1 {
		workers = spill.DefaultWorkers
	}
	chunk := min(s.MemBudget/pageSize+1, native.SpillChunkPagesCap)
	return uint64(chunk+3*workers+4)*uint64(pageSize) + (64 << 10)
}
