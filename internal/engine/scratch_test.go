package engine

import (
	"fmt"
	"testing"

	"hashjoin/internal/native"
	"hashjoin/internal/spill"
)

// TestPlannedScratchCoversSpillPool pins the estimate against the page
// pool the out-of-core tier claims, (chunkPages + 3·workers + 4) ·
// pageSize, at the configured page size. chunkPages is taken at its
// largest, budget/pageSize clamped to [1, native.SpillChunkPagesCap]:
// the tier divides the budget by the page size plus per-tuple table
// overhead, so its real chunk is never bigger. The budgets straddle the
// cap — 1 MiB stays below it at both page sizes, 64 MiB clamps to it.
func TestPlannedScratchCoversSpillPool(t *testing.T) {
	for _, pageSize := range []int{32 << 10, 63 << 10} {
		for _, budget := range []int{1 << 20, 64 << 20} {
			for _, workers := range []int{0, 4} {
				t.Run(fmt.Sprintf("page%dK/budget%dM/workers%d", pageSize>>10, budget>>20, workers), func(t *testing.T) {
					s := Scratch{
						OutWidth:      64,
						Workers:       1,
						MemBudget:     budget,
						SpillWorkers:  workers,
						SpillPageSize: pageSize,
					}
					sw := workers
					if sw < 1 {
						sw = spill.DefaultWorkers
					}
					chunk := min(max(budget/pageSize, 1), native.SpillChunkPagesCap)
					pool := uint64(chunk+3*sw+4) * uint64(pageSize)
					if got := PlannedScratch(s); got < pool {
						t.Fatalf("PlannedScratch = %d, below the %d-byte spill pool (%d chunk pages)", got, pool, chunk)
					}
					s.NoSpill = true
					if got := PlannedScratch(s); got >= pool {
						t.Fatalf("NoSpill estimate %d still counts the %d-byte spill pool", got, pool)
					}
				})
			}
		}
	}
}
