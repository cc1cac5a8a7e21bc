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

// recCodec is what one record kind of codec.go needs from a spill buffer:
// its kind byte, its encoder and decoder, and the bytes a resident record
// charges against the budget.
type recCodec[R any] struct {
	kind   byte
	append func([]byte, R) []byte
	read   func(*recDecoder) (R, error)
	charge func(R) int64
}

var (
	// indexCodec: arrival indexes, one side of a join partition.
	indexCodec = &recCodec[int32]{recKindIndex, appendIndexRec, (*recDecoder).readIndexRec,
		func(int32) int64 { return 8 }}
	// pairCodec: matched join pairs, ascending (i, j) by construction
	// (probe order per build block).
	pairCodec = &recCodec[pairRec]{recKindPair, appendPairRec, (*recDecoder).readPairRec,
		func(pairRec) int64 { return 8 }}
	// tupleCodec: full pL-tuples with their arrival sequence (dedup
	// partitions; the input may be a stream, so records carry their data).
	tupleCodec = &recCodec[tupleRec]{recKindTuple, appendTupleRec, (*recDecoder).readTupleRec,
		func(r tupleRec) int64 { return approxTupleBytes(r.t) }}
	// groupCodec: finished dedup groups in ascending first-arrival order.
	groupCodec = &recCodec[groupRec]{recKindGroup, appendGroupRec, (*recDecoder).readGroupRec,
		approxGroupBytes}
)

func approxGroupBytes(g groupRec) int64 {
	n := int64(48) + int64(16*len(g.members))
	for _, v := range g.vals {
		n += approxValueBytes(v)
	}
	return n
}

// spillBuf buffers records of one kind.
type spillBuf[R any] struct {
	ec      *core.ExecContext
	codec   *recCodec[R]
	mem     []R
	file    *spillFile
	charged int64
	scratch []byte
	count   int
}

func newSpillBuf[R any](ec *core.ExecContext, c *recCodec[R]) *spillBuf[R] {
	return &spillBuf[R]{ec: ec, codec: c}
}

func (b *spillBuf[R]) add(r R) error {
	b.count++
	if b.file != nil {
		// Sticky spill: once the buffer has overflowed, later records
		// stream straight to the file instead of re-accumulating heap.
		return b.write(r)
	}
	b.mem = append(b.mem, r)
	c := b.codec.charge(r)
	b.charged += c
	if b.ec.ChargeMem(c) {
		return b.flush()
	}
	return nil
}

func (b *spillBuf[R]) write(r R) error {
	b.scratch = b.codec.append(b.scratch[:0], r)
	return b.file.write(b.ec, b.scratch)
}

// flush moves the resident records to the buffer's file, creating it on
// first use, and releases their charge.
func (b *spillBuf[R]) flush() error {
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
		if err := b.write(r); err != nil {
			return err
		}
	}
	b.mem = b.mem[:0]
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	return nil
}

func (b *spillBuf[R]) close() {
	b.file.close()
	b.ec.ReleaseMem(b.charged)
	b.charged = 0
	b.mem = nil
}

// replay streams the buffered records in arrival order; it may be called
// repeatedly (block nested-loop re-probes, dedup recursion).
func (b *spillBuf[R]) replay(f func(R) error) error {
	it, err := b.iter()
	if err != nil {
		return err
	}
	for {
		r, ok, err := it.next()
		if err != nil || !ok {
			return err
		}
		if err := f(r); err != nil {
			return err
		}
	}
}

// recIter streams records in a kind-specific order: arrival order for a
// buffer, the merge's order for a merge.
type recIter[R any] interface {
	next() (R, bool, error)
	close()
}

// bufIter streams a spillBuf once: file records first, then the resident
// tail. Its close closes the buffer; a replay leaves the buffer open.
type bufIter[R any] struct {
	b   *spillBuf[R]
	d   *recDecoder
	pos int
}

func (b *spillBuf[R]) iter() (*bufIter[R], error) {
	it := &bufIter[R]{b: b}
	if b.file != nil {
		d, err := b.file.reader()
		if err != nil {
			return nil, err
		}
		it.d = d
	}
	return it, nil
}

func (it *bufIter[R]) next() (R, bool, error) {
	var zero R
	if it.d != nil {
		kind, ok, err := it.d.readKind()
		if err != nil {
			return zero, false, fmt.Errorf("%w: %v", ErrSpill, err)
		}
		if ok {
			if kind != it.b.codec.kind {
				return zero, false, fmt.Errorf("%w: unexpected record kind 0x%02x", ErrSpill, kind)
			}
			r, err := it.b.codec.read(it.d)
			if err != nil {
				return zero, false, fmt.Errorf("%w: %v", ErrSpill, err)
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
	return zero, false, nil
}

func (it *bufIter[R]) close() { it.b.close() }

// merge merges record streams ascending by less. Fan-in is small
// (spillFanout or a partition's block count), so a linear argmin scan beats
// a heap. It is a recIter itself, so partition streams compose into the
// top-level merge. Ties cannot occur: pairs are unique (i, j), and first
// indexes are unique across group streams (each input record opens at most
// one group, and a key lives in exactly one partition).
type merge[R any] struct {
	its   []recIter[R]
	less  func(a, b R) bool
	heads []R
	live  []bool
}

// newMerge primes every stream; on failure it closes them all.
func newMerge[R any](its []recIter[R], less func(a, b R) bool) (*merge[R], error) {
	m := &merge[R]{its: its, less: less, heads: make([]R, len(its)), live: make([]bool, len(its))}
	for k, it := range its {
		r, ok, err := it.next()
		if err != nil {
			m.close()
			return nil, err
		}
		m.heads[k], m.live[k] = r, ok
	}
	return m, nil
}

func (m *merge[R]) next() (R, bool, error) {
	var zero R
	best := -1
	for k := range m.its {
		if m.live[k] && (best < 0 || m.less(m.heads[k], m.heads[best])) {
			best = k
		}
	}
	if best < 0 {
		return zero, false, nil
	}
	out := m.heads[best]
	r, ok, err := m.its[best].next()
	if err != nil {
		return zero, false, err
	}
	m.heads[best], m.live[best] = r, ok
	return out, true, nil
}

func (m *merge[R]) close() {
	for _, it := range m.its {
		it.close()
	}
}

func pairLess(a, b pairRec) bool { return a.i < b.i || (a.i == b.i && a.j < b.j) }

func groupLess(a, b groupRec) bool { return a.first < b.first }

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
	probe := make([]*spillBuf[int32], spillFanout)
	build := make([]*spillBuf[int32], spillFanout)
	for p := 0; p < spillFanout; p++ {
		probe[p] = newSpillBuf(ec, indexCodec)
		build[p] = newSpillBuf(ec, indexCodec)
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
	streams := make([]recIter[pairRec], 0, spillFanout)
	for p := 0; p < spillFanout; p++ {
		start := time.Now()
		it, matches, err := joinSpillPartition(ec, probe[p], build[p], r1, r2, sh)
		if err != nil {
			closeAll(streams)
			return nil, err
		}
		streams = append(streams, it)
		parts[p] = partStat{rows: matches, dur: time.Since(start)}
		rows += matches
	}
	recordPartitions(ec, "join.spill", parts)

	merged, err := newMerge(streams, pairLess)
	if err != nil {
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

// closeAll closes every stream of a set being abandoned.
func closeAll[R any](its []recIter[R]) {
	for _, it := range its {
		it.close()
	}
}

// joinSpillPartition produces one partition's match stream, ascending (i, j),
// by block nested-loop: load build indexes into an in-memory hash table until
// the charge hook trips (always at least one), probe the partition's probe
// indexes against the block, emit (i, j) pairs into a spill-backed buffer,
// repeat for the next block, then merge the block streams. Also returns the
// partition's match count for the trace sub-span.
func joinSpillPartition(ec *core.ExecContext, probe, build *spillBuf[int32], r1, r2 *Relation, sh joinShape) (recIter[pairRec], int, error) {
	chk := core.Check{EC: ec}
	var blocks []recIter[pairRec]
	// One read of the build partition carries on from block to block:
	// blocks are contiguous windows of the build arrival order — later
	// blocks hold strictly larger j — and nothing of the build side is
	// resident between blocks, so the table and its member list are the
	// only budget-bounded structures. bit is not closed here: joinSpill
	// owns the build buffer and closes it.
	bit, err := build.iter()
	if err != nil {
		return nil, 0, err
	}
	matches := 0
	for sealed := true; sealed; {
		tab := getTable(ec, 0)
		var members []int32 // chained entry e is r2.Tuples[members[e]]
		var blockCharge int64
		sealed = false
		for !sealed {
			j, ok, err := bit.next()
			if err == nil && ok {
				err = chk.Tick()
			}
			if err != nil {
				putTable(ec, tab)
				ec.ReleaseMem(blockCharge)
				closeAll(blocks)
				return nil, 0, err
			}
			if !ok {
				break
			}
			vals := r2.Tuples[j].Vals
			tab.chain(tab.get(vals.HashAt(sh.idx2), func(id int32) bool {
				return r2.Tuples[members[tab.ends[id].head]].Vals.KeyEqualAt(sh.idx2, vals, sh.idx2)
			}, true))
			members = append(members, j)
			// One entry: member and chain links, its share of slots and hashes.
			blockCharge += 32
			sealed = ec.ChargeMem(32)
		}
		if len(members) == 0 {
			putTable(ec, tab)
			ec.ReleaseMem(blockCharge)
			break
		}
		bb := newSpillBuf(ec, pairCodec)
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
		var it *bufIter[pairRec]
		if err == nil {
			it, err = bb.iter()
		}
		if err != nil {
			bb.close()
			closeAll(blocks)
			return nil, 0, err
		}
		matches += bb.count
		blocks = append(blocks, it)
	}
	if len(blocks) == 1 {
		return blocks[0], matches, nil
	}
	m, err := newMerge(blocks, pairLess)
	if err != nil {
		return nil, 0, err
	}
	return m, matches, nil
}

// ---------------------------------------------------------------------------
// Dedup

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
func dedupPartition(ec *core.ExecContext, level int, all []int, feed func(add func(tupleRec) error) error) (recIter[groupRec], []partStat, error) {
	fan := spillFanout
	if level > 0 {
		fan = dedupSubFanout
	}
	parts := make([]*spillBuf[tupleRec], fan)
	for p := range parts {
		parts[p] = newSpillBuf(ec, tupleCodec)
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
func dedupMergePartitions(ec *core.ExecContext, parts []*spillBuf[tupleRec], level int, all []int) (recIter[groupRec], []partStat, error) {
	stats := make([]partStat, len(parts))
	its := make([]recIter[groupRec], 0, len(parts))
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
			closeAll(its)
			for _, rest := range parts[p+1:] {
				rest.close()
			}
			return nil, nil, err
		}
		its = append(its, it)
		stats[p] = partStat{rows: groups, dur: time.Since(start)}
	}
	m, err := newMerge(its, groupLess)
	if err != nil {
		return nil, nil, err
	}
	return m, stats, nil
}

// dedupGroupPartition turns one partition's records into an ordered group
// stream. It first tries to group in memory; if the charge hook trips and
// recursion depth remains, it abandons the table and re-partitions with a
// fresh hash seed. At the recursion cap it groups in memory regardless —
// the budget floor term (see docs/SPILL.md).
func dedupGroupPartition(ec *core.ExecContext, buf *spillBuf[tupleRec], level int, all []int) (recIter[groupRec], int, error) {
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
	gb := newSpillBuf(ec, groupCodec)
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
