package native

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
)

// Out-of-core tier of the degradation ladder. A pair that is still over
// budget when recursive re-partitioning runs out of depth or hash bits —
// irreducible duplicate-code skew — no longer fails: it is spilled to
// disk through internal/spill and joined in build-side chunks, each
// chunk's hash table sized to the budget, with the probe partition
// streamed past every chunk (the classic GRACE fallback, §2 of the
// paper, with the write-behind/read-ahead overlap iosim models). The
// reducible path therefore never returns *BudgetError; only Config.
// NoSpill restores the old failure mode.

// SpillChunkPagesCap bounds how many build pages one chunk pins, so a
// huge budget does not translate into a huge buffer pool.
const SpillChunkPagesCap = 256

// spillState is the per-Join spill coordinator, shared by all morsel
// workers of one Joiner.Join call. The Manager (and its temp directory)
// is created lazily on the first spill; mu serializes spilled pairs —
// one spilled pair joins at a time, while other workers keep draining
// in-memory pairs. That serialization is what makes the buffer pool
// sizing safe and the spill path's arena allocations single-threaded
// relative to each other.
type spillState struct {
	a          *arena.Arena
	dir        string
	workers    int
	buildWidth int
	probeWidth int
	budget     int
	pageSize   int             // 0: spill.DefaultPageSize
	ctx        context.Context // nil: never cancelled

	mu    sync.Mutex
	m     *spill.Manager
	merr  error // sticky Manager creation failure
	pairs int   // partition pairs that went through the spill tier
}

// newSpillState returns the spill coordinator for a join, or nil when
// spilling is disabled or the schemas cannot round-trip through slotted
// pages (variable width, or no leading 4-byte key to re-decode).
func newSpillState(build, probe *storage.Relation, cfg Config) *spillState {
	if cfg.NoSpill {
		return nil
	}
	bs, ps := build.Schema, probe.Schema
	if bs.HasVar() || ps.HasVar() || bs.FixedWidth() < 4 || ps.FixedWidth() < 4 {
		return nil
	}
	workers := cfg.SpillWorkers
	if workers < 1 {
		workers = spill.DefaultWorkers
	}
	// The spill tier's page pool comes from the query's scratch arena
	// when one is set (multi-tenant: the carved window), else from the
	// arena the relations live in (single-query: same thing).
	scratch := cfg.Arena
	if scratch == nil {
		scratch = build.Arena()
	}
	return &spillState{
		a:          scratch,
		dir:        cfg.SpillDir,
		workers:    workers,
		buildWidth: bs.FixedWidth(),
		probeWidth: ps.FixedWidth(),
		budget:     cfg.MemBudget,
		pageSize:   cfg.SpillPageSize,
		ctx:        cfg.Ctx,
	}
}

// page returns the spill page size this state's Manager is (or will be)
// configured with: the explicit knob, or the spill default. chunkPages
// and manager both derive from it, so the chunk budget arithmetic and
// the Manager's actual pages can never disagree.
func (sp *spillState) page() int {
	if sp.pageSize > 0 {
		return sp.pageSize
	}
	return spill.DefaultPageSize
}

// chunkPages returns how many build pages one chunk pins: the largest
// count whose tuples' pages + entries + hash table fit the budget,
// clamped to [1, SpillChunkPagesCap]. Even chunkPages == 1 always makes
// progress — that is why the spill tier cannot fail on size.
func (sp *spillState) chunkPages() int {
	pageSize := sp.page()
	perPage := pageSize +
		spill.PageCapacity(pageSize, sp.buildWidth)*(entrySize+rowHdrSize+sp.buildWidth+16)
	n := sp.budget / perPage
	if n < 1 {
		n = 1
	}
	if n > SpillChunkPagesCap {
		n = SpillChunkPagesCap
	}
	return n
}

// manager lazily creates the spill Manager; the failure is sticky so
// every spilled pair after a failed creation reports the same error
// instead of retrying the filesystem.
func (sp *spillState) manager() (*spill.Manager, error) {
	if sp.m == nil && sp.merr == nil {
		sp.m, sp.merr = spill.NewManager(spill.Config{
			Dir:       sp.dir,
			PageSize:  sp.page(),
			Workers:   sp.workers,
			PoolPages: sp.chunkPages() + 3*sp.workers + 4,
			A:         sp.a,
			Ctx:       sp.ctx,
		})
	}
	return sp.m, sp.merr
}

// available reports whether the out-of-core tier can accept a pair: the
// Manager either exists (or can still be created) and at least one
// configured spill directory is healthy. joinPairBudget consults it
// before committing a pair to disk; a false answer degrades the pair
// back up the ladder (or sheds it with unavailable()).
func (sp *spillState) available() bool {
	sp.mu.Lock()
	bad := sp.merr != nil
	sp.mu.Unlock()
	return !bad && spill.AnyHealthy(sp.dir)
}

// unavailable builds the typed shed error for a pair the out-of-core
// tier cannot take.
func (sp *spillState) unavailable() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return spill.Unavailable(sp.dir, sp.merr)
}

// finish closes the Manager — removing every spill file — and reports
// the harvested I/O stats and spilled pair count. Safe on a nil
// spillState and idempotent, so Joiner.Join can call it on both the
// normal return and the panic-unwind path.
func (sp *spillState) finish() (spill.Stats, int, error) {
	if sp == nil || sp.m == nil {
		return spill.Stats{}, 0, nil
	}
	st := sp.m.Stats()
	err := sp.m.Close()
	sp.m = nil
	return st, sp.pairs, err
}

// joinPairSpill joins one irreducible over-budget pair out of core:
// write both sides to disk partitions (write-behind), then for each
// build chunk that fits the budget, pin its pages, build a table over
// the decoded entries, and stream the probe partition past it
// (read-ahead). Output refs point into pinned pool pages, so the
// emit/sink path is identical to the in-memory join's.
func (j *pairJoiner) joinPairSpill(build, probe []Entry, shift uint, cfg Config) error {
	sp := j.spill
	sp.mu.Lock()
	defer sp.mu.Unlock()
	m, err := sp.manager()
	if err != nil {
		return err
	}
	sp.pairs++

	bs := &spillSide{data: j.data, entries: build, width: sp.buildWidth}
	if err := sp.writeSide(m, bs); err != nil {
		return err
	}
	ps := &spillSide{data: j.data, entries: probe, width: sp.probeWidth}
	if err := sp.writeSide(m, ps); err != nil {
		return err
	}

	chunkPages := sp.chunkPages()
	br := sp.openSide(m, bs)
	defer br.Close()
	pinned := j.spillPinned[:0]
	defer func() {
		for _, p := range pinned {
			m.Release(p)
		}
		j.spillPinned = pinned[:0]
	}()
	var pr *sideReader
	defer func() {
		if pr != nil {
			pr.Close()
		}
	}()

	// Left outer/semi/anti cannot decide "unmatched" against one build
	// chunk, so the chunk loop runs with the deferred probe bitmap armed.
	// spillPartition writes probe entries in slice order and the reader
	// streams pages back in that order, so a probe row's stream position
	// equals its index in the probe slice — the same indexing the hybrid
	// resident prefix uses, which is what lets bits set before the
	// resident/spilled seam resolve here. The hybrid caller arms the
	// bitmap itself before its resident pass; deferProbe is then already
	// set and the arming (which would clear its bits) is skipped.
	if j.needsProbeBits() && !j.deferProbe {
		j.armProbeBits(len(probe))
	}
	defer func() { j.deferProbe = false; j.probeBase = 0 }()

	for {
		pinned = pinned[:0]
		j.spillBuild = j.spillBuild[:0]
		for len(pinned) < chunkPages {
			pg, ok, err := br.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			pinned = append(pinned, pg)
			j.spillBuild = appendPageEntries(j.spillBuild, j.data, pg)
		}
		if len(j.spillBuild) == 0 {
			break
		}
		j.buildSerial(j.spillBuild, shift, cfg.Scheme)

		pr = sp.openSide(m, ps)
		pos := 0
		for {
			pg, ok, err := pr.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			j.spillProbe = appendPageEntries(j.spillProbe[:0], j.data, pg)
			j.probeBase = pos
			j.probeFor(j.spillProbe, cfg.Scheme)
			pos += len(j.spillProbe)
			m.Release(pg)
		}
		pr.Close()
		pr = nil
		// Each build row lives in exactly one chunk, so this chunk's
		// table can be swept for unmatched build rows right away.
		if j.joinType == plan.RightOuter {
			j.sweepUnmatchedBuild()
		}
		for _, p := range pinned {
			m.Release(p)
		}
	}
	if j.deferProbe {
		j.probeBase = 0
		j.finishProbeBits(probe)
	}
	return nil
}

// spillSide is one side of a spilled pair together with its immutable
// in-memory source: the entries still reference arena-resident tuples,
// so a partition whose file fails or corrupts can be rebuilt bit-for-bit
// (spillPartition appends in slice order, so the rebuilt stream decodes
// to the identical entry sequence). rebuilt bounds recovery to one
// rebuild attempt per partition — a second failure propagates.
type spillSide struct {
	data    []byte
	entries []Entry
	width   int
	w       *spill.Writer
	rebuilt bool
}

// spillPartition writes one side's entries to a disk partition: tuple
// bytes plus the memoized hash code, exactly the slot layout the
// in-memory partition phase uses (§7.1), so nothing is recomputed on
// the way back in. On failure the partially written Writer (when one
// was created) is returned alongside the error so the caller can
// quarantine it.
func (sp *spillState) spillPartition(m *spill.Manager, data []byte, entries []Entry, width int) (*spill.Writer, error) {
	w, err := m.NewWriter()
	if err != nil {
		return nil, err
	}
	for i := range entries {
		e := &entries[i]
		base := e.Ref - arena.Base
		if err := w.Append(data[base:base+uint64(width)], e.Code); err != nil {
			return w, err
		}
	}
	if err := w.Finish(); err != nil {
		return w, err
	}
	return w, nil
}

// writeSide spills one side to disk with directory failover: a write
// that fails with a *DirFailedError (the directory is now marked
// unhealthy) quarantines the partial file and rewrites the partition,
// which lands on the next healthy directory. The loop is bounded by the
// configured directory count; when every directory has failed in turn
// the typed *SpillUnavailableError sheds the query.
func (sp *spillState) writeSide(m *spill.Manager, s *spillSide) error {
	var lastErr error
	for attempt := 0; attempt <= len(m.Dirs()); attempt++ {
		w, err := sp.spillPartition(m, s.data, s.entries, s.width)
		if err == nil {
			s.w = w
			return nil
		}
		var dfe *spill.DirFailedError
		if !errors.As(err, &dfe) {
			return err
		}
		if w != nil {
			m.Quarantine(w)
			m.NoteRebuild()
		}
		lastErr = err
	}
	return spill.Unavailable(sp.dir, lastErr)
}

// sideReader streams a spilled side back, recovering from a failed or
// corrupt partition file by rebuilding it from the in-memory source and
// resuming at the exact page where the stream left off. Pages are
// written (and therefore decoded) deterministically, so the resumed
// stream is indistinguishable from an unfailed one — that is what makes
// recovery output bit-identical.
type sideReader struct {
	sp        *spillState
	m         *spill.Manager
	side      *spillSide
	r         *spill.Reader
	delivered int // pages already handed to the caller this pass
}

// openSide starts one streaming pass over a spilled side.
func (sp *spillState) openSide(m *spill.Manager, s *spillSide) *sideReader {
	return &sideReader{sp: sp, m: m, side: s, r: s.w.OpenReader()}
}

// Next delivers the next page, transparently rebuilding the partition
// on a recoverable failure.
func (sr *sideReader) Next() (spill.Page, bool, error) {
	for {
		pg, ok, err := sr.r.Next()
		if err == nil {
			if ok {
				sr.delivered++
			}
			return pg, ok, nil
		}
		if rerr := sr.recover(err); rerr != nil {
			return spill.Page{}, false, rerr
		}
	}
}

// Close releases the underlying reader's in-flight buffer.
func (sr *sideReader) Close() { sr.r.Close() }

// recover handles one read failure: quarantine the file, rebuild the
// partition from the immutable in-memory source (once per partition),
// reopen, and skip the pages already delivered. Cancellation and
// second failures propagate unchanged.
func (sr *sideReader) recover(cause error) error {
	if sr.sp.ctx != nil && sr.sp.ctx.Err() != nil {
		return cause
	}
	if sr.side.rebuilt {
		return cause
	}
	sr.side.rebuilt = true
	// Order matters: Close drains the in-flight read-ahead before
	// Quarantine closes the file under it.
	sr.r.Close()
	sr.m.Quarantine(sr.side.w)
	sr.m.NoteRebuild()
	if err := sr.sp.writeSide(sr.m, sr.side); err != nil {
		return err
	}
	r := sr.side.w.OpenReader()
	for i := 0; i < sr.delivered; i++ {
		pg, ok, err := r.Next()
		if err != nil {
			r.Close()
			return err
		}
		if !ok {
			r.Close()
			return fmt.Errorf("native: rebuilt spill partition %s has %d pages, resuming at %d: %w",
				sr.side.w.Path(), i, sr.delivered, cause)
		}
		sr.m.Release(pg)
	}
	sr.r = r
	return nil
}

// appendPageEntries decodes a spilled page's slot area back into join
// entries. Refs address the pool buffer the page sits in, so they are
// valid exactly while the page is held — the chunk loop's pin
// discipline.
func appendPageEntries(dst []Entry, data []byte, pg spill.Page) []Entry {
	v := pg.View()
	base := v.Addr - arena.Base
	n := int(binary.LittleEndian.Uint16(data[base:]))
	slot := base + uint64(v.Size) - uint64(storage.SlotSize)
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint16(data[slot+storage.SlotOffOffset:])
		code := binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])
		ref := v.Addr + arena.Addr(off)
		dst = append(dst, Entry{
			Code: code,
			Key:  binary.LittleEndian.Uint32(data[ref-arena.Base:]),
			Ref:  ref,
		})
		slot -= uint64(storage.SlotSize)
	}
	return dst
}
