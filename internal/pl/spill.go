package pl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/tuple"
)

// Bounded-memory execution: Grace-style spill-to-disk variants of Join and
// Dedup, engaged whenever the ExecContext carries a memory budget
// (core.Budget.Mem > 0). Inputs are drained through iterators into a fixed
// fan-out of hash partitions; every partition charges its buffered state
// against the budget through ExecContext.ChargeMem and, on overflow, flushes
// to an anonymous temp file via the codec in codec.go. The output is
// byte-identical to the serial in-memory operators at ANY positive budget —
// the budget floor documented in docs/SPILL.md bounds the peak charge, never
// correctness:
//
//   - Join: the serial join emits matched pairs in ascending (probe index i,
//     build index j). Each join key — hence each probe index that finds any
//     match — is owned by exactly one partition (hashPart over spillFanout,
//     independent of the budget), and a partition produces its matches in
//     ascending (i, j): the build side is loaded in blocks that each fit the
//     budget (arrival order, so later blocks hold strictly larger j), the
//     probe side replays in arrival order per block, and the per-block match
//     streams merge by (i, j). A final (i, j) merge across partitions
//     reconstructs the exact serial order, and the single-threaded output
//     loop allocates And gates in that order — node IDs included. Oversized
//     build groups need no recursion: block nested-loop handles a build
//     partition of any size at any budget.
//
//   - Dedup: the serial dedup emits groups in first-occurrence order with
//     members ascending. A group's key is owned by one partition; each
//     partition groups its records in memory when they fit, recurses into
//     sub-partitions (fresh hash seed per level) when they don't, and at the
//     recursion cap proceeds in memory regardless (the floor term). Group
//     streams are ordered by first-arrival index, so merging by that index
//     reconstructs first-occurrence order, and Or gates allocate in the
//     merge loop exactly as dedupSerial would.
//
// Temp files are unlinked immediately after creation, so the OS reclaims
// them even on a crash. All spill I/O errors (and the FailSpillAfter
// injection hook) surface wrapped in ErrSpill; the engine returns them with
// the partial trace like any other operator failure — a failed spill can
// abort a query but never corrupt its result.

// spillFanout is the fixed hash fan-out of a spill operator's top-level
// partitioning. It is a constant — never derived from the budget — so
// partition assignment, and therefore every intermediate stream, is identical
// at every budget.
const spillFanout = 8

// dedupSubFanout and dedupMaxDepth bound the dedup recursion: an overflowing
// partition re-partitions with a fresh hash seed up to dedupMaxDepth extra
// levels; past that it groups in memory regardless, which is where the
// documented budget floor (the largest single group) comes from.
const (
	dedupSubFanout = 4
	dedupMaxDepth  = 2
)

// spillBufSize sizes the bufio layers over spill temp files. I/O buffers are
// not charged against the memory budget (the budget governs the accounted
// operator state; see docs/SPILL.md for the floor formula).
const spillBufSize = 1 << 15

// ErrSpill wraps every spill temp-file failure (create, write, flush, seek,
// read), including injected ones. Matchable with errors.Is; the evaluation
// aborts with a partial trace, it never silently degrades.
var ErrSpill = errors.New("pl: spill I/O failure")

// spillFailAt is the fault-injection countdown: 0 disabled, n > 0 makes the
// n-th subsequent spill write fail.
var spillFailAt atomic.Int64

// FailSpillAfter arms the spill fault-injection hook: the n-th spill write
// from now on returns an injected error wrapped in ErrSpill (n = 1 fails the
// next write). n <= 0 disarms. Tests use it to prove a failed temp-file
// write surfaces a typed error with a partial trace instead of corrupting
// results; never enable it in production code.
func FailSpillAfter(n int) {
	if n <= 0 {
		spillFailAt.Store(0)
		return
	}
	spillFailAt.Store(int64(n))
}

// spillWriteGate consumes one tick of the injection countdown.
func spillWriteGate() error {
	for {
		cur := spillFailAt.Load()
		if cur == 0 {
			return nil
		}
		if spillFailAt.CompareAndSwap(cur, cur-1) {
			if cur == 1 {
				return fmt.Errorf("%w: injected temp-file write fault", ErrSpill)
			}
			return nil
		}
	}
}

// spillFile is one anonymous temp file of encoded records.
type spillFile struct {
	f     *os.File
	w     *bufio.Writer
	bytes int64
}

// The spill free list recycles anonymous temp files across spill buffers: a
// released file is truncated and reused instead of re-created, because the
// openat syscall dominates spill cost when tight budgets produce many small
// partition files. A bounded explicit list (not a sync.Pool) so reuse
// survives garbage collections; overflow beyond the cap closes the fd.
var (
	spillFreeMu sync.Mutex
	spillFree   []*spillFile
)

const spillFreeCap = 256

func newSpillFile() (*spillFile, error) {
	spillFreeMu.Lock()
	var s *spillFile
	if n := len(spillFree); n > 0 {
		s = spillFree[n-1]
		spillFree = spillFree[:n-1]
	}
	spillFreeMu.Unlock()
	if s != nil {
		if _, err := s.f.Seek(0, io.SeekStart); err == nil {
			if err := s.f.Truncate(0); err == nil {
				s.w.Reset(s.f)
				s.bytes = 0
				return s, nil
			}
		}
		// A recycled file that cannot be reset is abandoned and replaced
		// with a fresh one.
		s.f.Close()
	}
	f, err := os.CreateTemp("", "pdb-spill-*")
	if err != nil {
		return nil, fmt.Errorf("%w: create: %v", ErrSpill, err)
	}
	// Unlink immediately: the fd keeps the data alive, the name never
	// outlives the process.
	os.Remove(f.Name())
	return &spillFile{f: f, w: bufio.NewWriterSize(f, spillBufSize)}, nil
}

func (s *spillFile) write(ec *core.ExecContext, rec []byte) error {
	if err := spillWriteGate(); err != nil {
		return err
	}
	n, err := s.w.Write(rec)
	if err != nil {
		return fmt.Errorf("%w: write: %v", ErrSpill, err)
	}
	s.bytes += int64(n)
	ec.AddSpillBytes(int64(n))
	return nil
}

// reader flushes pending writes and returns a decoder positioned at the
// start of the file. Only one reader may be active per file at a time.
func (s *spillFile) reader() (*recDecoder, error) {
	if err := s.w.Flush(); err != nil {
		return nil, fmt.Errorf("%w: flush: %v", ErrSpill, err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("%w: seek: %v", ErrSpill, err)
	}
	return &recDecoder{br: bufio.NewReaderSize(s.f, spillBufSize)}, nil
}

// close releases the file back to the free list (or closes it when the list
// is full). Idempotent: the fd moves into a fresh wrapper so a double close
// can never release the same file twice.
func (s *spillFile) close() {
	if s == nil || s.f == nil {
		return
	}
	f, w := s.f, s.w
	s.f, s.w = nil, nil
	spillFreeMu.Lock()
	if len(spillFree) < spillFreeCap {
		spillFree = append(spillFree, &spillFile{f: f, w: w})
		f = nil
	}
	spillFreeMu.Unlock()
	if f != nil {
		f.Close()
	}
}

// approxValueBytes estimates a value's resident footprint for charge
// accounting. The estimates only need to be consistent — the budget bounds
// the accounted total, and the property tests assert against the same
// accounting.
func approxValueBytes(v tuple.Value) int64 {
	if v.Kind() == tuple.KindString {
		return 16 + int64(len(v.AsString()))
	}
	return 16
}

func approxTupleBytes(t Tuple) int64 {
	n := int64(40) // slice header + P + Lin + seq bookkeeping
	for _, v := range t.Vals {
		n += approxValueBytes(v)
	}
	return n
}

// ---------------------------------------------------------------------------
// Spill buffers: append-only record streams that live in memory until the
// charge hook reports the budget exceeded, then move to a temp file. Arrival
// order is preserved across the flush boundary (file contents first, then
// the still-buffered tail), which every ordering argument above relies on.

// idxBuf buffers arrival indexes (one side of a join partition).
type idxBuf struct {
	ec      *core.ExecContext
	mem     []int32
	file    *spillFile
	charged int64
	scratch []byte
	count   int
}

func (b *idxBuf) add(seq int32) error {
	b.count++
	if b.file != nil {
		// Sticky spill: once the buffer has overflowed, later records
		// stream straight to the file instead of re-accumulating heap.
		b.scratch = appendIndexRec(b.scratch[:0], seq)
		return b.file.write(b.ec, b.scratch)
	}
	b.mem = append(b.mem, seq)
	b.charged += 8
	if b.ec.ChargeMem(8) {
		return b.flush()
	}
	return nil
}

func (b *idxBuf) flush() error {
	if len(b.mem) == 0 {
		return nil
	}
	if b.file == nil {
		f, err := newSpillFile()
		if err != nil {
			return err
		}
		b.file = f
		b.ec.AddSpillPartitions(1)
	}
	for _, seq := range b.mem {
		b.scratch = appendIndexRec(b.scratch[:0], seq)
		if err := b.file.write(b.ec, b.scratch); err != nil {
			return err
		}
	}
	b.mem = b.mem[:0]
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	return nil
}

// replay streams the buffered indexes in arrival order; it may be called
// repeatedly (block nested-loop re-probes).
func (b *idxBuf) replay(f func(seq int32) error) error {
	if b.file != nil {
		d, err := b.file.reader()
		if err != nil {
			return err
		}
		for {
			kind, ok, err := d.readKind()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSpill, err)
			}
			if !ok {
				break
			}
			if kind != recKindIndex {
				return fmt.Errorf("%w: unexpected record kind in index stream", ErrSpill)
			}
			seq, err := d.readIndexRec()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSpill, err)
			}
			if err := f(seq); err != nil {
				return err
			}
		}
	}
	for _, seq := range b.mem {
		if err := f(seq); err != nil {
			return err
		}
	}
	return nil
}

func (b *idxBuf) close() {
	b.file.close()
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	b.mem = nil
}

// pairBuf buffers matched join pairs, already ordered ascending (i, j) by
// construction (probe order per build block).
type pairBuf struct {
	ec      *core.ExecContext
	mem     []pairRec
	file    *spillFile
	charged int64
	scratch []byte
	count   int
}

func (b *pairBuf) add(r pairRec) error {
	b.count++
	if b.file != nil {
		b.scratch = appendPairRec(b.scratch[:0], r)
		return b.file.write(b.ec, b.scratch)
	}
	b.mem = append(b.mem, r)
	b.charged += 8
	if b.ec.ChargeMem(8) {
		return b.flush()
	}
	return nil
}

func (b *pairBuf) flush() error {
	if len(b.mem) == 0 {
		return nil
	}
	if b.file == nil {
		f, err := newSpillFile()
		if err != nil {
			return err
		}
		b.file = f
		b.ec.AddSpillPartitions(1)
	}
	for _, r := range b.mem {
		b.scratch = appendPairRec(b.scratch[:0], r)
		if err := b.file.write(b.ec, b.scratch); err != nil {
			return err
		}
	}
	b.mem = b.mem[:0]
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	return nil
}

func (b *pairBuf) close() {
	b.file.close()
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	b.mem = nil
}

// pairIter streams pairRecs ascending (i, j).
type pairIter interface {
	next() (pairRec, bool, error)
	close()
}

// pairBufIter streams a pairBuf once: file records first, then the resident
// tail — arrival order, which for a pairBuf is ascending (i, j).
type pairBufIter struct {
	b   *pairBuf
	d   *recDecoder
	pos int
}

func (b *pairBuf) iter() (pairIter, error) {
	it := &pairBufIter{b: b}
	if b.file != nil {
		d, err := b.file.reader()
		if err != nil {
			return nil, err
		}
		it.d = d
	}
	return it, nil
}

func (it *pairBufIter) next() (pairRec, bool, error) {
	if it.d != nil {
		kind, ok, err := it.d.readKind()
		if err != nil {
			return pairRec{}, false, fmt.Errorf("%w: %v", ErrSpill, err)
		}
		if ok {
			if kind != recKindPair {
				return pairRec{}, false, fmt.Errorf("%w: unexpected record kind in pair stream", ErrSpill)
			}
			r, err := it.d.readPairRec()
			if err != nil {
				return pairRec{}, false, fmt.Errorf("%w: %v", ErrSpill, err)
			}
			return r, true, nil
		}
		it.d = nil
	}
	if it.pos < len(it.b.mem) {
		r := it.b.mem[it.pos]
		it.pos++
		return r, true, nil
	}
	return pairRec{}, false, nil
}

func (it *pairBufIter) close() { it.b.close() }

// pairMerge merges pair streams by ascending (i, j). Fan-in is small
// (spillFanout or a partition's block count), so a linear argmin scan beats
// a heap. It is a pairIter itself, so partition streams compose into the
// top-level merge.
type pairMerge struct {
	its   []pairIter
	heads []pairRec
	live  []bool
}

func newPairMerge(its []pairIter) (*pairMerge, error) {
	m := &pairMerge{its: its, heads: make([]pairRec, len(its)), live: make([]bool, len(its))}
	for k, it := range its {
		r, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		m.heads[k], m.live[k] = r, ok
	}
	return m, nil
}

func (m *pairMerge) next() (pairRec, bool, error) {
	best := -1
	for k := range m.its {
		if !m.live[k] {
			continue
		}
		if best < 0 || m.heads[k].i < m.heads[best].i ||
			(m.heads[k].i == m.heads[best].i && m.heads[k].j < m.heads[best].j) {
			best = k
		}
	}
	if best < 0 {
		return pairRec{}, false, nil
	}
	out := m.heads[best]
	r, ok, err := m.its[best].next()
	if err != nil {
		return pairRec{}, false, err
	}
	m.heads[best], m.live[best] = r, ok
	return out, true, nil
}

func (m *pairMerge) close() {
	for _, it := range m.its {
		it.close()
	}
}

// ---------------------------------------------------------------------------
// Trace sub-spans

// partStat is one top-level partition's trace measurement.
type partStat struct {
	rows int
	dur  time.Duration
}

// recordPartitions emits one sub-span per partition under the currently
// open operator span, in partition order. kind is "join.spill" or
// "project.spill"; the sub-spans are measurements nested inside the parent
// operator (their time is included in the parent's own time, unlike FinishOp
// children).
func recordPartitions(ec *core.ExecContext, kind string, parts []partStat) {
	if !ec.Tracing() {
		return
	}
	for p := range parts {
		ec.RecordSubOp(core.OpStat{
			Op:   fmt.Sprintf("partition %d/%d", p, len(parts)),
			Kind: kind,
			Rows: parts[p].rows,
			Time: parts[p].dur,
		})
	}
}

// ---------------------------------------------------------------------------
// Join

// joinSpill is the bounded-memory join. See the file comment for the
// ordering argument; the result is byte-identical to joinMatch.emit.
func joinSpill(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network, sh joinShape) (*Relation, error) {
	chk := core.Check{EC: ec}
	probe := make([]*idxBuf, spillFanout)
	build := make([]*idxBuf, spillFanout)
	for p := 0; p < spillFanout; p++ {
		probe[p] = &idxBuf{ec: ec}
		build[p] = &idxBuf{ec: ec}
	}
	defer func() {
		for p := 0; p < spillFanout; p++ {
			probe[p].close()
			build[p].close()
		}
	}()
	for j, t := range r2.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if err := build[hashPart(t.Vals.HashAt(sh.idx2), spillFanout, 0)].add(int32(j)); err != nil {
			return nil, err
		}
	}
	for i, t := range r1.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if err := probe[hashPart(t.Vals.HashAt(sh.idx1), spillFanout, 0)].add(int32(i)); err != nil {
			return nil, err
		}
	}

	parts := make([]partStat, spillFanout)
	rows := 0 // the join's size, for the output arena
	streams := make([]pairIter, 0, spillFanout)
	closeStreams := func() {
		for _, it := range streams {
			it.close()
		}
	}
	for p := 0; p < spillFanout; p++ {
		start := time.Now()
		it, matches, err := joinSpillPartition(ec, probe[p], build[p], r1, r2, sh)
		if err != nil {
			closeStreams()
			return nil, err
		}
		streams = append(streams, it)
		parts[p] = partStat{rows: matches, dur: time.Since(start)}
		rows += matches
	}
	recordPartitions(ec, "join.spill", parts)

	merged, err := newPairMerge(streams)
	if err != nil {
		closeStreams()
		return nil, err
	}
	defer merged.close()
	o := newJoinOut(ec, sh, net, rows)
	for {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		pr, ok, err := merged.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return o.rel, o.charge.flush()
		}
		if err := o.add(r1.Tuples[pr.i], r2.Tuples[pr.j]); err != nil {
			return nil, err
		}
	}
}

// joinSpillPartition produces one partition's match stream, ascending (i, j),
// by block nested-loop: load build indexes into an in-memory hash table until
// the charge hook trips (always at least one), probe the partition's probe
// indexes against the block, emit (i, j) pairs into a spill-backed buffer,
// repeat for the next block, then merge the block streams. Also returns the
// partition's match count for the trace sub-span.
func joinSpillPartition(ec *core.ExecContext, probe, build *idxBuf, r1, r2 *Relation, sh joinShape) (pairIter, int, error) {
	chk := core.Check{EC: ec}
	var blocks []*pairBuf
	closeBlocks := func() {
		for _, b := range blocks {
			b.close()
		}
	}

	// Block nested-loop over the build side: each round replays the build
	// partition, skips the lo entries already consumed, and loads entries
	// into the group table until the charge hook trips (with at least one
	// per round, so rounds always progress). Blocks are contiguous windows
	// of the build arrival order — later blocks hold strictly larger j —
	// and nothing of the build side is resident between rounds, so the
	// table and its member list are the only budget-bounded structures.
	matches := 0
	for lo := 0; ; {
		tab := getTable(ec, 0)
		var members []int32 // chained entry e is r2.Tuples[members[e]]
		var blockCharge int64
		pos := 0
		err := build.replay(func(j int32) error {
			if pos < lo {
				pos++
				return nil
			}
			pos++
			if err := chk.Tick(); err != nil {
				return err
			}
			vals := r2.Tuples[j].Vals
			tab.chain(tab.get(vals.HashAt(sh.idx2), func(id int32) bool {
				return r2.Tuples[members[tab.ends[id].head]].Vals.KeyEqualAt(sh.idx2, vals, sh.idx2)
			}, true))
			members = append(members, j)
			// One entry: member and chain links, its share of slots and hashes.
			blockCharge += 32
			if ec.ChargeMem(32) {
				return errBlockSealed
			}
			return nil
		})
		sealed := errors.Is(err, errBlockSealed)
		failed := err != nil && !sealed
		if failed || len(members) == 0 {
			putTable(ec, tab)
			ec.ReleaseMem(blockCharge)
			if failed {
				closeBlocks()
				return nil, 0, err
			}
			break
		}
		bb := &pairBuf{ec: ec}
		err = probe.replay(func(i int32) error {
			if err := chk.Tick(); err != nil {
				return err
			}
			vals := r1.Tuples[i].Vals
			g, _ := tab.get(vals.HashAt(sh.idx1), func(id int32) bool {
				return r2.Tuples[members[tab.ends[id].head]].Vals.KeyEqualAt(sh.idx2, vals, sh.idx1)
			}, false)
			if g < 0 {
				return nil
			}
			for e := tab.ends[g].head; e >= 0; e = tab.next[e] {
				if err := bb.add(pairRec{i: i, j: members[e]}); err != nil {
					return err
				}
			}
			return nil
		})
		putTable(ec, tab)
		ec.ReleaseMem(blockCharge)
		if err != nil {
			bb.close()
			closeBlocks()
			return nil, 0, err
		}
		matches += bb.count
		blocks = append(blocks, bb)
		lo += len(members)
		if !sealed {
			break
		}
	}

	if len(blocks) == 1 {
		it, err := blocks[0].iter()
		if err != nil {
			closeBlocks()
			return nil, 0, err
		}
		return it, matches, nil
	}
	its := make([]pairIter, 0, len(blocks))
	for _, b := range blocks {
		it, err := b.iter()
		if err != nil {
			for _, open := range its {
				open.close()
			}
			closeBlocks()
			return nil, 0, err
		}
		its = append(its, it)
	}
	m, err := newPairMerge(its)
	if err != nil {
		for _, open := range its {
			open.close()
		}
		return nil, 0, err
	}
	return m, matches, nil
}

// ---------------------------------------------------------------------------
// Dedup

// tupleBuf buffers full pL-tuples with their arrival sequence (dedup
// partitions; the input may be a stream, so records must carry their data).
type tupleBuf struct {
	ec      *core.ExecContext
	mem     []tupleRec
	file    *spillFile
	charged int64
	scratch []byte
	count   int
}

func (b *tupleBuf) add(r tupleRec) error {
	b.count++
	if b.file != nil {
		b.scratch = appendTupleRec(b.scratch[:0], r)
		return b.file.write(b.ec, b.scratch)
	}
	b.mem = append(b.mem, r)
	c := approxTupleBytes(r.t)
	b.charged += c
	if b.ec.ChargeMem(c) {
		return b.flush()
	}
	return nil
}

func (b *tupleBuf) flush() error {
	if len(b.mem) == 0 {
		return nil
	}
	if b.file == nil {
		f, err := newSpillFile()
		if err != nil {
			return err
		}
		b.file = f
		b.ec.AddSpillPartitions(1)
	}
	for _, r := range b.mem {
		b.scratch = appendTupleRec(b.scratch[:0], r)
		if err := b.file.write(b.ec, b.scratch); err != nil {
			return err
		}
	}
	b.mem = b.mem[:0]
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	return nil
}

// replay streams the buffered records in arrival order.
func (b *tupleBuf) replay(f func(r tupleRec) error) error {
	if b.file != nil {
		d, err := b.file.reader()
		if err != nil {
			return err
		}
		for {
			kind, ok, err := d.readKind()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSpill, err)
			}
			if !ok {
				break
			}
			if kind != recKindTuple {
				return fmt.Errorf("%w: unexpected record kind in tuple stream", ErrSpill)
			}
			r, err := d.readTupleRec()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSpill, err)
			}
			if err := f(r); err != nil {
				return err
			}
		}
	}
	for _, r := range b.mem {
		if err := f(r); err != nil {
			return err
		}
	}
	return nil
}

func (b *tupleBuf) close() {
	b.file.close()
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	b.mem = nil
}

// groupBuf buffers finished dedup groups in ascending first-arrival order.
type groupBuf struct {
	ec      *core.ExecContext
	mem     []groupRec
	file    *spillFile
	charged int64
	scratch []byte
}

func approxGroupBytes(g groupRec) int64 {
	n := int64(48) + int64(16*len(g.members))
	for _, v := range g.vals {
		n += approxValueBytes(v)
	}
	return n
}

func (b *groupBuf) add(g groupRec) error {
	if b.file != nil {
		b.scratch = appendGroupRec(b.scratch[:0], g)
		return b.file.write(b.ec, b.scratch)
	}
	b.mem = append(b.mem, g)
	c := approxGroupBytes(g)
	b.charged += c
	if b.ec.ChargeMem(c) {
		return b.flush()
	}
	return nil
}

func (b *groupBuf) flush() error {
	if len(b.mem) == 0 {
		return nil
	}
	if b.file == nil {
		f, err := newSpillFile()
		if err != nil {
			return err
		}
		b.file = f
		b.ec.AddSpillPartitions(1)
	}
	for _, g := range b.mem {
		b.scratch = appendGroupRec(b.scratch[:0], g)
		if err := b.file.write(b.ec, b.scratch); err != nil {
			return err
		}
	}
	b.mem = b.mem[:0]
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	return nil
}

func (b *groupBuf) close() {
	b.file.close()
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	b.mem = nil
}

// groupIter streams groupRecs ascending by first-arrival index.
type groupIter interface {
	next() (groupRec, bool, error)
	close()
}

type groupBufIter struct {
	b   *groupBuf
	d   *recDecoder
	pos int
}

func (b *groupBuf) iter() (groupIter, error) {
	it := &groupBufIter{b: b}
	if b.file != nil {
		d, err := b.file.reader()
		if err != nil {
			return nil, err
		}
		it.d = d
	}
	return it, nil
}

func (it *groupBufIter) next() (groupRec, bool, error) {
	if it.d != nil {
		kind, ok, err := it.d.readKind()
		if err != nil {
			return groupRec{}, false, fmt.Errorf("%w: %v", ErrSpill, err)
		}
		if ok {
			if kind != recKindGroup {
				return groupRec{}, false, fmt.Errorf("%w: unexpected record kind in group stream", ErrSpill)
			}
			g, err := it.d.readGroupRec()
			if err != nil {
				return groupRec{}, false, fmt.Errorf("%w: %v", ErrSpill, err)
			}
			return g, true, nil
		}
		it.d = nil
	}
	if it.pos < len(it.b.mem) {
		g := it.b.mem[it.pos]
		it.pos++
		return g, true, nil
	}
	return groupRec{}, false, nil
}

func (it *groupBufIter) close() { it.b.close() }

// groupMerge merges group streams ascending by first-arrival index. First
// indexes are unique across streams (each input record opens at most one
// group, and a key lives in exactly one partition), so ties cannot occur.
type groupMerge struct {
	its   []groupIter
	heads []groupRec
	live  []bool
}

func newGroupMerge(its []groupIter) (*groupMerge, error) {
	m := &groupMerge{its: its, heads: make([]groupRec, len(its)), live: make([]bool, len(its))}
	for k, it := range its {
		g, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		m.heads[k], m.live[k] = g, ok
	}
	return m, nil
}

func (m *groupMerge) next() (groupRec, bool, error) {
	best := -1
	for k := range m.its {
		if !m.live[k] {
			continue
		}
		if best < 0 || m.heads[k].first < m.heads[best].first {
			best = k
		}
	}
	if best < 0 {
		return groupRec{}, false, nil
	}
	out := m.heads[best]
	g, ok, err := m.its[best].next()
	if err != nil {
		return groupRec{}, false, err
	}
	m.heads[best], m.live[best] = g, ok
	return out, true, nil
}

func (m *groupMerge) close() {
	for _, it := range m.its {
		it.close()
	}
}

// hashPart assigns a key hash (tuple.Tuple.HashAt) to one of w partitions.
// The hash is remixed with a level-dependent seed, so a partition that
// recurses redistributes its keys instead of sending them all to one
// sub-partition again, and so the bits a partition's own group table indexes
// by stay spread within it.
func hashPart(h uint64, w int, seed uint64) int {
	h = (h ^ (seed+1)*0x9E3779B97F4A7C15) * 0xFF51AFD7ED558CCD
	return int((h >> 32) % uint64(w))
}

// dedupSpill is the bounded-memory dedup over an input stream: partition by
// full-tuple key, group each partition (recursing while over budget), merge
// group streams by first arrival, allocate Or gates in merge order.
func dedupSpill(ec *core.ExecContext, attrs tuple.Schema, src Iterator, net *aonet.Network) (*Relation, error) {
	chk := core.Check{EC: ec}
	stream, parts, err := dedupPartition(ec, 0, positions(len(attrs)), func(add func(tupleRec) error) error {
		for seq := int32(0); ; seq++ { // records are numbered by arrival
			if err := chk.Tick(); err != nil {
				return err
			}
			t, ok, err := src.Next()
			if err != nil || !ok {
				return err
			}
			if err := add(tupleRec{seq: seq, t: t}); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	defer stream.close()
	recordPartitions(ec, "project.spill", parts)
	out := &Relation{Attrs: attrs.Clone()}
	for {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		g, ok, err := stream.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(g.members) == 1 {
			out.Tuples = append(out.Tuples, Tuple{Vals: g.vals, P: g.members[0].P, Lin: g.members[0].From})
			continue
		}
		lin := net.AddGate(aonet.Or, g.members)
		out.Tuples = append(out.Tuples, Tuple{Vals: g.vals, P: 1, Lin: lin})
	}
	return out, nil
}

// dedupPartition spreads the records feed produces over the level's
// partitions by key hash (all: every position of a tuple) and returns the
// merged group stream with the per-partition trace measurements.
func dedupPartition(ec *core.ExecContext, level int, all []int, feed func(add func(tupleRec) error) error) (groupIter, []partStat, error) {
	fan := spillFanout
	if level > 0 {
		fan = dedupSubFanout
	}
	parts := make([]*tupleBuf, fan)
	for p := range parts {
		parts[p] = &tupleBuf{ec: ec}
	}
	if err := feed(func(r tupleRec) error {
		return parts[hashPart(r.t.Vals.HashAt(all), fan, uint64(level))].add(r)
	}); err != nil {
		for _, b := range parts {
			b.close()
		}
		return nil, nil, err
	}
	return dedupMergePartitions(ec, parts, level, all)
}

// dedupMergePartitions groups every partition (recursing past the budget
// while depth remains) and merges the resulting group streams.
func dedupMergePartitions(ec *core.ExecContext, parts []*tupleBuf, level int, all []int) (groupIter, []partStat, error) {
	stats := make([]partStat, len(parts))
	its := make([]groupIter, 0, len(parts))
	closeIts := func() {
		for _, it := range its {
			it.close()
		}
	}
	// Phase boundary: if the budget forced any partition onto disk, the
	// operator is memory-tight — flush every partition so each one's group
	// table gets the budget to itself instead of competing with its
	// siblings' resident buffers. When nothing overflowed, everything stays
	// resident and no temp files are created at all.
	for _, b := range parts {
		if b.file == nil {
			continue
		}
		for _, rest := range parts {
			if err := rest.flush(); err != nil {
				for _, rb := range parts {
					rb.close()
				}
				return nil, nil, err
			}
		}
		break
	}
	for p, buf := range parts {
		start := time.Now()
		it, groups, err := dedupGroupPartition(ec, buf, level, all)
		buf.close()
		if err != nil {
			closeIts()
			for _, rest := range parts[p+1:] {
				rest.close()
			}
			return nil, nil, err
		}
		its = append(its, it)
		stats[p] = partStat{rows: groups, dur: time.Since(start)}
	}
	m, err := newGroupMerge(its)
	if err != nil {
		closeIts()
		return nil, nil, err
	}
	return m, stats, nil
}

// dedupGroupPartition turns one partition's records into an ordered group
// stream. It first tries to group in memory; if the charge hook trips and
// recursion depth remains, it abandons the table and re-partitions with a
// fresh hash seed. At the recursion cap it groups in memory regardless —
// the budget floor term (see docs/SPILL.md).
func dedupGroupPartition(ec *core.ExecContext, buf *tupleBuf, level int, all []int) (groupIter, int, error) {
	tab := getTable(ec, 0)
	defer putTable(ec, tab)
	var recs []groupRec // by group id, which is first-occurrence order
	var charged int64
	release := func() {
		ec.ReleaseMem(charged)
		charged = 0
	}
	overflow := false
	err := buf.replay(func(r tupleRec) error {
		g, fresh := tab.get(r.t.Vals.HashAt(all), func(id int32) bool {
			return recs[id].vals.KeyEqualAt(all, r.t.Vals, all)
		}, true)
		if fresh {
			recs = append(recs, groupRec{first: r.seq, vals: r.t.Vals})
			c := 56 + approxTupleBytes(r.t) // record header and table entry
			charged += c
			if ec.ChargeMem(c) && level < dedupMaxDepth {
				overflow = true
				return errDedupOverflow
			}
		}
		recs[g].members = append(recs[g].members, aonet.Edge{From: r.t.Lin, P: r.t.P})
		c := int64(16)
		charged += c
		if ec.ChargeMem(c) && level < dedupMaxDepth {
			overflow = true
			return errDedupOverflow
		}
		return nil
	})
	if err != nil && !overflow {
		release()
		return nil, 0, err
	}
	if overflow {
		release()
		// The group count is unknown without draining the recursive stream;
		// the trace sub-span reports 0 rows for a recursed partition.
		// Move the overflowing partition fully to disk before re-partitioning
		// it one level deeper (sequence numbers preserved): its records are
		// about to be charged again inside the sub-partitions, and keeping
		// the parent resident would double-charge them.
		if err := buf.flush(); err != nil {
			return nil, 0, err
		}
		it, _, err := dedupPartition(ec, level+1, all, buf.replay)
		return it, 0, err
	}
	// Emit in first-occurrence order into a (possibly spilling) group
	// buffer, releasing the table charge as we go.
	gb := &groupBuf{ec: ec}
	for _, rec := range recs {
		if err := gb.add(rec); err != nil {
			release()
			gb.close()
			return nil, 0, err
		}
	}
	release()
	it, err := gb.iter()
	if err != nil {
		gb.close()
		return nil, 0, err
	}
	return it, len(recs), nil
}

// errDedupOverflow is the internal signal that a partition's group table hit
// the budget and should recurse; never escapes the dedup path.
var errDedupOverflow = errors.New("pl: dedup partition overflow")

// errBlockSealed is the internal signal that a join build block reached the
// budget and should stop loading; never escapes the join path.
var errBlockSealed = errors.New("pl: join build block sealed")
