package engine

// Native backend: the batch operators run on real memory with real
// prefetches, reusing the native engine's radix partitioner, flat
// cache-line hash table, and PREFETCHT0 probe loops. A join compiles to
// one of two physical strategies: with Fanout <= 1 the probe side
// streams through a resident table one batch (= one prefetch group) at
// a time; with Fanout > 1 both sides are radix-partitioned and joined
// under morsel-driven parallelism, the workers packing matches into
// output batches that feed the downstream pipeline.

import (
	"context"
	"encoding/binary"
	"runtime"

	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// nativeScan reads a relation's slot areas directly from the arena's
// backing bytes, yielding batches of up to batch rows.
type nativeScan struct {
	a     *arena.Arena
	rel   *storage.Relation
	batch int
	ctx   context.Context // nil: never cancelled

	pageIdx int
	slotIdx int
	nslots  int
	page    arena.Addr
}

func newNativeScan(a *arena.Arena, rel *storage.Relation, batch int) *nativeScan {
	return &nativeScan{a: a, rel: rel, batch: batch, pageIdx: -1}
}

func (s *nativeScan) Open() error { s.pageIdx = -1; s.slotIdx = 0; s.nslots = 0; return nil }

func (s *nativeScan) NextBatch(b *Batch) (bool, error) {
	// The scan is every pipeline's data pump, so a per-batch check here
	// bounds how far past cancellation any compiled plan can run.
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return false, err
		}
	}
	b.Reset()
	for len(b.Rows) < s.batch {
		for s.pageIdx < 0 || s.slotIdx >= s.nslots {
			s.pageIdx++
			if s.pageIdx >= s.rel.NPages() {
				return len(b.Rows) > 0, nil
			}
			s.page = s.rel.Pages[s.pageIdx]
			s.nslots = int(s.a.U16(storage.NSlotsAddr(s.page)))
			s.slotIdx = 0
		}
		slot := storage.SlotAddr(s.page, s.rel.PageSize, s.slotIdx)
		s.slotIdx++
		b.Rows = append(b.Rows, Row{
			Addr: s.page + arena.Addr(s.a.U16(slot+storage.SlotOffOffset)),
			Code: s.a.U32(slot + storage.SlotOffHash),
			Len:  int32(s.a.U16(slot + storage.SlotOffLength)),
		})
	}
	return true, nil
}

func (s *nativeScan) Close() {}

// nativeFilter passes through rows whose key lies in [lo, hi].
type nativeFilter struct {
	a     *arena.Arena
	child Operator
	pred  Pred
	batch int

	in   Batch
	next int
	done bool
}

func newNativeFilter(a *arena.Arena, child Operator, pred Pred, batch int) *nativeFilter {
	return &nativeFilter{a: a, child: child, pred: pred, batch: batch}
}

func (f *nativeFilter) Open() error {
	if err := f.child.Open(); err != nil {
		return err
	}
	f.in.Reset()
	f.next = 0
	f.done = false
	return nil
}

func (f *nativeFilter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	data := f.a.Data()
	for len(b.Rows) < f.batch {
		if f.next >= f.in.Len() {
			if f.done {
				break
			}
			ok, err := f.child.NextBatch(&f.in)
			if err != nil {
				return false, err
			}
			if !ok {
				f.done = true
				break
			}
			f.next = 0
		}
		r := f.in.Rows[f.next]
		f.next++
		k := binary.LittleEndian.Uint32(data[r.Addr-arena.Base:])
		if k >= f.pred.Lo && k <= f.pred.Hi {
			b.Rows = append(b.Rows, r)
		}
	}
	return len(b.Rows) > 0, nil
}

func (f *nativeFilter) Close() { f.child.Close() }

// materializeNative drains op into a fresh relation of fixed width
// (plain byte copies, no timing) and closes op.
func materializeNative(a *arena.Arena, op Operator, width int) (*storage.Relation, error) {
	rel := storage.NewRelation(a, storage.KeyPayloadSchema(width), 8<<10)
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	var b Batch
	for {
		ok, err := op.NextBatch(&b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return rel, nil
		}
		for i := range b.Rows {
			r := b.Rows[i]
			tup := a.Bytes(r.Addr, uint64(r.Len))
			code := r.Code
			if code == 0 {
				code = hash.Code(tup[:4])
			}
			rel.Append(tup, code)
		}
	}
}

// pipeBuf is one in-flight output batch of the morsel join: its rows
// plus the arena scratch block their bytes live in. Buffers circulate
// between a free list and the output channel; a buffer's rows stay
// valid until it returns to the free list.
type pipeBuf struct {
	rows    []Row
	scratch arena.Addr
}

// nativeHashJoin joins natively in one of two modes (see the file
// comment). Both deliver the concatenated build||probe rows in batches
// of at most G.
type nativeHashJoin struct {
	cfg        Config
	a          *arena.Arena
	data       []byte
	buildChild Operator
	probeChild Operator
	buildRel   *storage.Relation // non-nil: build child is a plain scan
	probeRel   *storage.Relation // non-nil: probe child is a plain scan
	buildWidth int
	probeWidth int
	outWidth   int
	batch      int
	jt         plan.JoinType

	buildClosed bool
	probeClosed bool

	// Streaming mode (fanout <= 1).
	prober       *native.Prober
	buildEntries []native.Entry
	probeEntries []native.Entry
	out          []arena.Addr // output ring, grown on demand
	outSlot      int
	sink         func(build []byte, pref uint64) // persistent emit closure (allocation-free probing)
	pending      []Row
	next         int
	in           Batch
	done         bool

	// Morsel mode (fanout > 1, or a streaming build over MemBudget).
	morsel    bool
	free      chan *pipeBuf
	outc      chan *pipeBuf
	last      *pipeBuf
	emits     []pipeEmitter
	morselRes native.Result // written by the background join, read after outc closes
	morselErr error         // ditto
	reported  bool
}

func newNativeHashJoin(cfg Config, build, probe Operator, buildRel, probeRel *storage.Relation,
	buildWidth, probeWidth int, jt plan.JoinType) *nativeHashJoin {
	outWidth := buildWidth + probeWidth
	if jt.ProbeOnly() {
		outWidth = probeWidth
	}
	return &nativeHashJoin{
		cfg: cfg, a: cfg.A, buildChild: build, probeChild: probe,
		buildRel: buildRel, probeRel: probeRel,
		buildWidth: buildWidth, probeWidth: probeWidth,
		outWidth: outWidth, batch: cfg.batchSize(), jt: jt,
		morsel: cfg.Fanout > 1,
	}
}

// resolveBuild returns the build side as a relation, materializing a
// non-scan child; either way the build child ends closed.
func (h *nativeHashJoin) resolveBuild() (*storage.Relation, error) {
	if h.buildRel != nil {
		h.buildChild.Close()
		h.buildClosed = true
		return h.buildRel, nil
	}
	rel, err := materializeNative(h.a, h.buildChild, h.buildWidth)
	h.buildClosed = true
	return rel, err
}

func (h *nativeHashJoin) Open() error {
	h.data = h.a.Data()
	h.buildClosed, h.probeClosed = false, false
	h.morselErr = nil
	h.reported = false
	h.morsel = h.cfg.Fanout > 1 && h.cfg.Build == nil

	if h.cfg.Build != nil {
		// A pre-built immutable BuildSide replaces the whole build
		// phase: the build child is never opened, nothing is flattened
		// or inserted, and the table's memory is accounted to whoever
		// owns the handle (the service's build cache), not this query's
		// budget. The probe side streams through fresh probe scratch
		// over the shared table.
		h.buildChild.Close()
		h.buildClosed = true
		h.prober = h.cfg.Build.NewTypedProber(h.jt, NativeScheme(h.cfg.Scheme),
			h.cfg.Params.G, h.cfg.Params.D)
	} else {
		rel, err := h.resolveBuild()
		if err != nil {
			return err
		}
		// Budget governor: a streaming join keeps the whole build side
		// resident in one table; when that footprint exceeds MemBudget,
		// degrade to the partitioned morsel strategy, whose fan-out (and,
		// if a pair is still oversized, recursive re-partitioning) bounds
		// the per-pair resident set the way the paper's GRACE partition
		// phase does.
		if !h.morsel && h.cfg.MemBudget > 0 &&
			native.BuildFootprint(rel.NTuples, h.buildWidth) > h.cfg.MemBudget {
			h.morsel = true
		}
		if h.morsel {
			return h.openMorsel(rel)
		}
		h.buildEntries = native.Flatten(rel, h.buildEntries)
		h.prober = native.NewTypedProber(h.data, h.buildEntries, h.buildWidth,
			h.jt, NativeScheme(h.cfg.Scheme), h.cfg.Params.G, h.cfg.Params.D)
	}
	if h.cfg.Report != nil {
		h.cfg.Report.JoinFanout = 1
	}
	if err := h.probeChild.Open(); err != nil {
		return err
	}
	h.out = h.out[:0]
	h.sink = func(build []byte, pref uint64) {
		if h.outSlot >= len(h.out) {
			h.out = append(h.out, h.a.Alloc(uint64(h.outWidth), 8))
		}
		dst := h.out[h.outSlot]
		h.outSlot++
		h.pending = append(h.pending, h.writeMatch(dst, build, pref))
	}
	h.pending = h.pending[:0]
	h.next = 0
	h.done = false
	return nil
}

func (h *nativeHashJoin) NextBatch(b *Batch) (bool, error) {
	if h.morsel {
		return h.nextMorsel(b)
	}
	b.Reset()
	for h.next >= len(h.pending) {
		if h.done {
			return false, nil
		}
		if err := h.fillPending(); err != nil {
			return false, err
		}
	}
	for len(b.Rows) < h.batch && h.next < len(h.pending) {
		b.Rows = append(b.Rows, h.pending[h.next])
		h.next++
	}
	return len(b.Rows) > 0, nil
}

// fillPending pulls one probe child batch, converts it to entries, and
// runs one prefetched probe pass, materializing matches into the ring.
func (h *nativeHashJoin) fillPending() error {
	h.pending = h.pending[:0]
	h.next = 0
	ok, err := h.probeChild.NextBatch(&h.in)
	if err != nil {
		return err
	}
	if !ok {
		// End of the probe stream: a right-outer prober still holds the
		// build rows no batch matched; drain them into pending (with
		// probeRef 0, so writeMatch null-pads the probe half) before
		// declaring done.
		if h.jt == plan.RightOuter {
			h.outSlot = 0
			h.prober.EmitUnmatchedBuild(h.sink)
		}
		h.done = true
		return nil
	}
	h.probeEntries = h.probeEntries[:0]
	for i := range h.in.Rows {
		r := h.in.Rows[i]
		key := binary.LittleEndian.Uint32(h.data[r.Addr-arena.Base:])
		code := r.Code
		if code == 0 {
			code = hash.CodeU32(key)
		}
		h.probeEntries = append(h.probeEntries, native.Entry{Code: code, Key: key, Ref: r.Addr})
	}
	h.outSlot = 0
	h.prober.ProbeBatch(h.probeEntries, h.sink)
	return nil
}

// writeMatch materializes one output row at dst per the join type's
// sink contract: build bytes come straight from the row table's
// serialized row (the build relation is never touched on the probe
// path); a nil build means no build row (probe-only output, or a
// left-outer null pad), probeRef 0 means no probe row (a right-outer
// sweep row, probe half null-padded).
func (h *nativeHashJoin) writeMatch(dst arena.Addr, build []byte, pref uint64) Row {
	d := h.data[dst-arena.Base:]
	if h.jt.ProbeOnly() {
		copy(d[:h.outWidth], h.data[pref-arena.Base:])
	} else {
		if build == nil {
			clear(d[:h.buildWidth])
		} else {
			copy(d[:h.buildWidth], build)
		}
		if pref == 0 {
			clear(d[h.buildWidth:h.outWidth])
		} else {
			copy(d[h.buildWidth:h.outWidth], h.data[pref-arena.Base:])
		}
	}
	key := binary.LittleEndian.Uint32(d)
	return Row{Addr: dst, Len: int32(h.outWidth), Code: hash.CodeU32(key)}
}

func (h *nativeHashJoin) Close() {
	if h.morsel {
		h.closeMorsel()
	}
	if !h.buildClosed {
		h.buildChild.Close()
		h.buildClosed = true
	}
	if !h.probeClosed {
		h.probeChild.Close()
		h.probeClosed = true
	}
}

// --- Morsel mode ---

// pipeEmitter packs one worker's matches into pipe buffers. Each worker
// owns one emitter, so no locking is needed on the buffer itself; the
// free list and output channel provide the cross-goroutine handoff.
type pipeEmitter struct {
	h   *nativeHashJoin
	cur *pipeBuf
}

func (e *pipeEmitter) emit(build []byte, pref uint64) {
	if e.cur == nil {
		e.cur = <-e.h.free
		e.cur.rows = e.cur.rows[:0]
	}
	buf := e.cur
	dst := buf.scratch + arena.Addr(len(buf.rows)*e.h.outWidth)
	buf.rows = append(buf.rows, e.h.writeMatch(dst, build, pref))
	if len(buf.rows) == e.h.batch {
		e.h.outc <- buf
		e.cur = nil
	}
}

// flush sends a partially filled buffer downstream (or recycles an
// empty one). Called after all workers have finished.
func (e *pipeEmitter) flush() {
	if e.cur == nil {
		return
	}
	if len(e.cur.rows) > 0 {
		e.h.outc <- e.cur
	} else {
		e.h.free <- e.cur
	}
	e.cur = nil
}

// openMorsel resolves the probe child to a relation (the build side was
// already resolved by Open; the partitioned join is a pipeline breaker
// on both sides), then starts the native morsel join in the background:
// radix partitioning, one pair-joiner per worker, matches streaming
// into pipe buffers. A failure inside the background join — a budget an
// irreducible pair cannot meet, or arena exhaustion recovered from a
// worker — is stored and surfaced by nextMorsel after the output
// channel closes, never panicking across the goroutine boundary.
func (h *nativeHashJoin) openMorsel(buildRel *storage.Relation) error {
	probeRel := h.probeRel
	if probeRel != nil {
		h.probeChild.Close()
	} else {
		var err error
		probeRel, err = materializeNative(h.a, h.probeChild, h.probeWidth)
		if err != nil {
			h.probeClosed = true
			return err
		}
	}
	h.probeClosed = true

	workers := h.cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	nbuf := 2*workers + 4
	h.free = make(chan *pipeBuf, nbuf)
	h.outc = make(chan *pipeBuf, nbuf)
	for i := 0; i < nbuf; i++ {
		h.free <- &pipeBuf{
			rows:    make([]Row, 0, h.batch),
			scratch: h.a.Alloc(uint64(h.batch*h.outWidth), 8),
		}
	}
	h.emits = make([]pipeEmitter, workers)
	for i := range h.emits {
		h.emits[i] = pipeEmitter{h: h}
	}
	h.last = nil

	jcfg := native.Config{
		Scheme:   NativeScheme(h.cfg.Scheme),
		JoinType: h.jt,
		G:        h.cfg.Params.G, D: h.cfg.Params.D,
		Fanout: h.cfg.Fanout, Workers: workers,
		Pool: h.cfg.Pool, Tenant: h.cfg.Tenant, Weight: h.cfg.Weight,
		Arena:     h.a,
		MemBudget: h.cfg.MemBudget,
		SpillDir:  h.cfg.SpillDir, SpillWorkers: h.cfg.SpillWorkers, NoSpill: h.cfg.NoSpill,
		SpillPageSize: h.cfg.SpillPageSize,
		Hybrid:        h.cfg.Hybrid, BudgetNow: h.cfg.BudgetNow,
		Ctx: h.cfg.Ctx,
	}
	go func() {
		var res native.Result
		var err error
		func() {
			defer arena.RecoverOOM(&err)
			res, err = native.NewJoiner().JoinStream(buildRel, probeRel, jcfg, func(w int) func([]byte, uint64) {
				return h.emits[w].emit
			})
		}()
		if err == nil {
			// All workers are done; partial buffers can be flushed from
			// this single goroutine without racing anyone.
			for i := range h.emits {
				h.emits[i].flush()
			}
		}
		h.morselRes, h.morselErr = res, err
		close(h.outc) // publishes morselRes/morselErr to the foreground
	}()
	return nil
}

func (h *nativeHashJoin) nextMorsel(b *Batch) (bool, error) {
	b.Reset()
	if h.last != nil {
		h.free <- h.last
		h.last = nil
	}
	buf, ok := <-h.outc
	if !ok {
		if h.morselErr != nil {
			return false, h.morselErr
		}
		h.report()
		return false, nil
	}
	b.Rows = append(b.Rows, buf.rows...)
	h.last = buf
	return true, nil
}

// report copies the finished morsel join's execution detail into the
// config's Report, once.
func (h *nativeHashJoin) report() {
	if h.cfg.Report == nil || h.reported {
		return
	}
	h.reported = true
	h.cfg.Report.JoinFanout = h.morselRes.NPartitions
	h.cfg.Report.JoinRecursionDepth = h.morselRes.RecursionDepth
	h.cfg.Report.MorselsExecuted = h.morselRes.PairsJoined
	h.cfg.Report.SpilledPartitions = h.morselRes.SpilledPartitions
	h.cfg.Report.SpillBytesWritten = h.morselRes.SpillBytesWritten
	h.cfg.Report.SpillBytesRead = h.morselRes.SpillBytesRead
	h.cfg.Report.SpillWriteStall = h.morselRes.SpillWriteStall
	h.cfg.Report.SpillReadStall = h.morselRes.SpillReadStall
	h.cfg.Report.SpillFailovers = h.morselRes.SpillFailovers
	h.cfg.Report.SpillRebuilds = h.morselRes.SpillRebuilds
	h.cfg.Report.ResidentPartitions = h.morselRes.Hybrid.ResidentPairs
	h.cfg.Report.DemotedPartitions = h.morselRes.Hybrid.DemotedPairs
	h.cfg.Report.BytesDemoted = h.morselRes.Hybrid.BytesDemoted
}

// closeMorsel drains the output channel so the background join (which
// may be blocked on the free list) runs to completion before the
// operator is torn down.
func (h *nativeHashJoin) closeMorsel() {
	if h.outc == nil {
		return
	}
	if h.last != nil {
		h.free <- h.last
		h.last = nil
	}
	for buf := range h.outc {
		h.free <- buf
	}
	if h.morselErr == nil {
		h.report()
	}
	h.outc = nil
}

// nativeHashAggregate is the native group-by pipeline breaker: Open
// drains the child into the flat native AggTable (header prefetches
// batched per the scheme) and stages one 24-byte row per group.
type nativeHashAggregate struct {
	cfg        Config
	a          *arena.Arena
	child      Operator
	childWidth int
	valueOff   int
	groups     int

	rows        []Row
	next        int
	batch       int
	childClosed bool
	inputs      []native.AggInput
}

func newNativeHashAggregate(cfg Config, child Operator, childWidth, valueOff, groups int) *nativeHashAggregate {
	if valueOff < 4 || childWidth < valueOff+4 {
		panic("engine: aggregation value offset outside the row")
	}
	return &nativeHashAggregate{
		cfg: cfg, a: cfg.A, child: child, childWidth: childWidth,
		valueOff: valueOff, groups: groups, batch: cfg.batchSize(),
	}
}

func (ha *nativeHashAggregate) Open() error {
	data := ha.a.Data()
	table := native.NewAggTable(ha.groups)
	scheme := NativeScheme(ha.cfg.Scheme)
	g := ha.batch

	ha.childClosed = false
	if err := ha.child.Open(); err != nil {
		return err
	}
	var b Batch
	for {
		ok, err := ha.child.NextBatch(&b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ha.inputs = ha.inputs[:0]
		for i := range b.Rows {
			r := b.Rows[i]
			base := r.Addr - arena.Base
			key := binary.LittleEndian.Uint32(data[base:])
			code := r.Code
			if code == 0 {
				code = hash.CodeU32(key)
			}
			ha.inputs = append(ha.inputs, native.AggInput{
				Code:  code,
				Key:   key,
				Value: binary.LittleEndian.Uint32(data[base+uint64(ha.valueOff):]),
			})
		}
		table.UpsertBatch(ha.inputs, scheme, g)
	}
	ha.child.Close()
	ha.childClosed = true

	// Stage the group rows in one arena block.
	n := table.NGroups()
	ha.rows = ha.rows[:0]
	ha.next = 0
	if n == 0 {
		return nil
	}
	block := ha.a.Alloc(uint64(n)*AggTupleWidth, 8)
	addr := block
	table.Each(func(key uint32, count, sum uint64) {
		ha.a.PutU32(addr, key)
		ha.a.PutU64(addr+8, count)
		ha.a.PutU64(addr+16, sum)
		ha.rows = append(ha.rows, Row{Addr: addr, Len: AggTupleWidth, Code: hash.CodeU32(key)})
		addr += AggTupleWidth
	})
	return nil
}

func (ha *nativeHashAggregate) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for len(b.Rows) < ha.batch && ha.next < len(ha.rows) {
		b.Rows = append(b.Rows, ha.rows[ha.next])
		ha.next++
	}
	return len(b.Rows) > 0, nil
}

// Close closes the child exactly once (it is normally closed at the end
// of Open's drain).
func (ha *nativeHashAggregate) Close() {
	if !ha.childClosed {
		ha.child.Close()
		ha.childClosed = true
	}
}
