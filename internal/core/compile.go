package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
)

// This file is the compiler engine of the two-engine architecture. The
// table-driven Kernel (kernel.go) *interprets* the KernelIR: its hot
// loops re-test the neverThr/alwaysThr sentinels on every draw and load
// the swap threshold from the 4×4 table on every attempt. Compile
// resolves the surface once, at query time, onto bit-sliced decision
// streams: every refill of the bulk draw buffer turns its words into
// one success bitmask per distinct threshold (decided as the generator
// fills it when there is one), and a trial reads its prefix as one
// m-bit extraction, each settling walk and each geometric shift as a
// run of ones found with a bit scan. The swap surface collapses to a
// per-row permission mask plus one uniform threshold (memmodel.Uniform
// guarantees every permitted pair shares a threshold), and loop bounds
// (m, n) and thresholds are captured constants. The stream forms:
//
//   - where nothing settles (an empty permission mask: SC at any s, or
//     any model at s = 0), the prefix's draws are skipped undecided,
//     every Γ is 2 and only the shifts are read (compileNoSettle);
//   - at the all-interior lattice point (0 < p, s < 1, m ≤ 64), where
//     one kind blocks the walks a walk's limit comes from that kind's
//     highest position, an integer per copy, and WO, where nothing
//     blocks, counts off the walks whose outcomes it discards a window
//     at a time (compileStreams).
//
// Every other surface — something settles and p ∈ {0,1}, s = 1 or
// m > 64, and the six relaxation subsets compileStreams does not cover
// (no registered model has one) — runs the table kernel's own loops
// (Kernel.sampleSegments and Kernel.FillBits) on a kernel each pooled
// state builds once.
//
// A Program serves both trial shapes from one segment stage: FillBits
// (the mc-compiled kind's event-A bits) adds the shift stage, and
// FillProducts (the hybrid kind's Theorem 6.1 products, through
// Config.ProductBatch) folds the segments into Π 2^-i·Γᵢ.
//
// The only correctness gate is bit-identity with the table-driven kernel
// and the reference oracle (Config.ReferenceNoBugBits and the
// ProductTrial closure) on the same source — same draws, same order,
// same final generator state — which the cross-engine property tests
// (compile_test.go) enforce across the full parameter lattice. A
// hand-built IR the compiler cannot specialize (per-pair swap
// thresholds, which Config.BuildIR never emits) reports
// ErrNotCompilable.

// ErrNotCompilable reports an IR outside the compiler's specialization
// lattice; the table-driven kernel handles every IR.
var ErrNotCompilable = errors.New("core: IR not compilable")

// cursorWords is the bulk-draw buffer size (8 KiB). A batch call wastes
// at most one buffer of generated-but-unconsumed words (resynchronized
// by drawCursor.sync), well under 1% of a chunk's draws.
const cursorWords = 1024

// maxStreams bounds the decision streams one Program reads: one per
// distinct threshold among store, swap and shift.
const maxStreams = 3

// streamWords is one decision stream's length in words: cursorWords
// bits, then as many zero words again, so a 64-bit window read at any
// position up to the spent mark (pos = cursorWords) indexes in bounds
// under a mask and reads zeros — failures — past the buffer's end.
const streamWords = 2 * cursorWords / 64

// stream is one decision stream: bit i is set iff draw i of the current
// buffer succeeds against the stream's threshold.
type stream [streamWords]uint64

// window returns the stream's 64 bits from position pos on (pos ≤
// cursorWords), bit 0 first, zero past the buffer's end.
func (s *stream) window(pos int) uint64 {
	w, off := uint(pos)>>6, uint(pos)&63
	return s[w&(streamWords-1)]>>off | s[(w+1)&(streamWords-1)]<<1<<(63-off)
}

// drawCursor serves decisions from a bulk-filled word buffer while
// keeping the underlying source externally indistinguishable from
// sequential Uint64 consumption. The mc harness calls a batch function
// repeatedly on the same source (sub-batches between cancellation
// checks) and asserts the source's final state matches the per-draw
// route, so the cursor snapshots the generator state before each refill
// and, on sync, rewinds and re-advances by exactly the draws consumed.
//
// The decision-stream stages read the streams: refillStreams builds
// them, take and skip consume a prefix's draws, and a reader consumes
// runs. The table-kernel fallback draws from the source directly and
// never attaches a cursor.
type drawCursor struct {
	src *rng.Source
	// pos is the next unconsumed word; pos == cursorWords means the
	// buffer is spent, and doubles as the attach-time "never filled"
	// mark.
	pos  int
	snap [4]uint64
	// thr holds the decision streams' raw thresholds (a draw word d
	// succeeds iff d < thr[k]); nstreams is how many refillStreams
	// builds for the current batch call.
	thr      [maxStreams]uint64
	nstreams int
	streams  [maxStreams]stream
	buf      [cursorWords]uint64
}

// attach binds the cursor to a source at the start of a batch call,
// which will read the first nstreams decision streams (0 for a products
// fill where nothing settles: its refills only count draws).
func (c *drawCursor) attach(src *rng.Source, nstreams int) {
	c.src, c.pos, c.nstreams = src, cursorWords, nstreams
}

// refillStreams snapshots the source, bulk-fills the buffer and decides
// every draw of it against each stream's threshold, 64 draws per word.
// A buffer that feeds one stream (p = s = ½: store, swap and shift share
// a threshold) is decided while it is filled, with no word buffer
// between the generator and the stream. The caller continues at
// position 0.
func (c *drawCursor) refillStreams() {
	c.snap = c.src.State()
	if c.nstreams == 1 {
		c.src.FillBelow(c.streams[0][:cursorWords/64], c.thr[0])
		return
	}
	c.src.FillUint64s(c.buf[:])
	for k := 0; k < c.nstreams; k++ {
		thr, s := c.thr[k], &c.streams[k]
		for w := range s[:cursorWords/64] {
			var word uint64
			// Eight independent decisions per step, each the borrow of
			// d - thr (d < thr), keep the accumulation off one long
			// dependency chain.
			for j := 0; j < 64; j += 8 {
				b := c.buf[w*64+j:][:8]
				_, b0 := bits.Sub64(b[0], thr, 0)
				_, b1 := bits.Sub64(b[1], thr, 0)
				_, b2 := bits.Sub64(b[2], thr, 0)
				_, b3 := bits.Sub64(b[3], thr, 0)
				_, b4 := bits.Sub64(b[4], thr, 0)
				_, b5 := bits.Sub64(b[5], thr, 0)
				_, b6 := bits.Sub64(b[6], thr, 0)
				_, b7 := bits.Sub64(b[7], thr, 0)
				word |= (b0 | b1<<1 | b2<<2 | b3<<3 | b4<<4 | b5<<5 | b6<<6 | b7<<7) << uint(j)
			}
			s[w] = word
		}
	}
}

// Each decision primitive below has a fast path and, out of line, a slow
// path for a read that crosses the end of the buffer (or of a reader's
// window), which the fast path detects.

// take reads m ≤ 64 decisions of stream k from pos as one bitmask, bit
// i the decision of draw pos+i, and returns it with the next position.
func (c *drawCursor) take(k, pos, m int) (uint64, int) {
	if m > cursorWords-pos {
		return c.takeSlow(k, pos, m)
	}
	return c.streams[k].window(pos) & (1<<uint(m) - 1), pos + m
}

// takeSlow is take across a refill: the buffer's remaining decisions
// (the window reads zeros past its end), then the rest from a fresh one.
func (c *drawCursor) takeSlow(k, pos, m int) (uint64, int) {
	avail := cursorWords - pos
	low := c.streams[k].window(pos)
	c.refillStreams()
	high := c.streams[k].window(0) & (1<<uint(m-avail) - 1)
	return low | high<<uint(avail), m - avail
}

// skip consumes m draws whose decisions nothing reads, across as many
// refills as they span.
func (c *drawCursor) skip(pos, m int) int {
	for m > cursorWords-pos {
		m -= cursorWords - pos
		c.refillStreams()
		pos = 0
	}
	return pos + m
}

// reader is a position in one decision stream, held in registers by a
// stage for a whole trial: a 63-decision window of the buffer with the
// failures it holds as a bitmask, so consuming a run is a bit scan and a
// clear on a register, with no load on the chain from one run to the
// next. It is a value of four words, small enough for the compiler to
// keep in registers.
type reader struct {
	base int    // buffer position of the window's bit 0
	cur  int    // window offset of the next unconsumed decision
	lim  int    // a read that ends past offset lim is left to runSlow
	z    uint64 // failures at offsets ≥ cur; bit 63 is always set
}

// reader opens a reader on stream k at buffer position pos ≤
// cursorWords. The window's bit 63 is forced to a failure, so the bit
// scan needs no zero guard; lim keeps every read that could depend on
// it, or on a position past the buffer's end, off the fast path.
func (c *drawCursor) reader(k, pos int) reader {
	return reader{base: pos, lim: min(63, cursorWords-pos), z: ^c.streams[k].window(pos) | 1<<63}
}

// pos is the reader's buffer position.
func (r *reader) pos() int { return r.base + r.cur }

// capped reads a run of successes: s = min(successes before the first
// failure, limit) for limit ≤ 64, consuming s draws plus the failure
// when it came first (s < limit) — what a loop that stops on the first
// failed draw or after limit successes consumes. The choice between the
// two stops is arithmetic, so nothing branches on the drawn values. ok
// is false, and nothing consumed, when the run does not end inside the
// window; runSlow finishes it.
func (r *reader) capped(limit int) (s int, ok bool) {
	// z's bit 63 is set, and saying so again drops the scan's zero guard.
	end := bits.TrailingZeros64(r.z|1<<63) + 1 // just past the next failure
	d := r.cur + limit - end
	capped := d >> (bits.UintSize - 1) // -1 when the limit comes first
	end += d & capped
	if end > r.lim {
		return 0, false
	}
	s = end - r.cur - 1 - capped
	r.z &= (r.z - 1) | uint64(capped) // consume the failure unless capped
	r.cur = end
	return s, true
}

// A geometric variate — the successes before the first failure,
// consumed with the failure — is a run capped at geomCap: inside a
// window no run reaches 64, so the cap never applies there, and a run
// the window cannot hold is finished by runSlow at maxRun, which no run
// reaches.
const (
	geomCap = 64
	maxRun  = int(^uint(0) >> 1)
)

// runSlow finishes a run the reader's window could not hold — a capped
// run up to limit, or a geometric run at maxRun — over as many windows
// and refills as it needs, and reopens the reader after it.
func (c *drawCursor) runSlow(k int, r reader, limit int) (int, reader) {
	s, pos := 0, r.pos()
	for {
		if pos == cursorWords {
			c.refillStreams()
			pos = 0
		}
		ones := bits.TrailingZeros64(^c.streams[k].window(pos))
		switch {
		case ones >= limit:
			return s + limit, c.reader(k, pos+limit)
		case ones < 64 && ones < cursorWords-pos:
			return s + ones, c.reader(k, pos+ones+1)
		}
		// Every decision the window held was a success (64 of them, or
		// the run reached the buffer's end): consume them and read on.
		s, pos, limit = s+ones, pos+ones, limit-ones
	}
}

// runGuard is the shortest limit skip batches: a walk whose limit is at
// least runGuard ends at its first failed draw unless runGuard successes
// come first, so where the window holds no run of runGuard successes,
// each failure ends exactly one such walk.
const runGuard = 8

// skip consumes up to walks walks whose outcomes nothing reads, each
// with a limit of at least runGuard, and reports how many it consumed:
// one per failure, up to the window's first run of runGuard successes
// and its end. It reports 0 when such a run, or the window's end, comes
// before the next failure; capped and runSlow take that walk.
func (r *reader) skip(walks int) int {
	// Bit i of run: decisions i to i+runGuard-1 all succeed.
	run := ^r.z
	run &= run >> 1
	run &= run >> 2
	run &= run >> 4
	stop := min(bits.TrailingZeros64(run>>uint(r.cur)<<uint(r.cur)), r.lim)
	fails := r.z & (1<<uint(stop) - 1)
	n := bits.OnesCount64(fails)
	if n == 0 {
		return 0
	}
	last := bits.Len64(fails) - 1
	if n > walks {
		for range walks - 1 {
			fails &= fails - 1
		}
		last, n = bits.TrailingZeros64(fails), walks
	}
	r.cur = last + 1
	r.z &^= 2<<uint(last) - 1
	return n
}

// skipWalks consumes the walks with limits from to to-1 (from ≥
// runGuard), whose outcomes nothing reads, and returns the reader after
// them: skip batches them a window at a time, and a walk that meets a
// long run or the window's end is read one capped at a time.
func (c *drawCursor) skipWalks(k int, r reader, from, to int) reader {
	for at := from; at < to; at++ {
		if n := r.skip(to - at); n > 0 {
			at += n - 1
			continue
		}
		if _, ok := r.capped(at); !ok {
			_, r = c.runSlow(k, r, at)
		}
	}
	return r
}

// sync leaves the source exactly where sequential per-draw consumption
// would have: rewind to the last pre-refill snapshot, then re-advance by
// the draws actually consumed from that buffer.
func (c *drawCursor) sync() {
	if c.pos == cursorWords {
		// Buffer exactly spent (or never filled): the source already
		// sits at the sequential-consumption position.
		c.src = nil
		return
	}
	if err := c.src.Restore(c.snap); err != nil {
		// Unreachable: the snapshot was captured from a live source.
		panic(fmt.Sprintf("core: cursor resync: %v", err))
	}
	c.src.FillUint64s(c.buf[:c.pos])
	c.src = nil
}

// compiledState is the per-goroutine scratch a Program trial runs on.
// States are pooled inside the Program, so steady-state batch calls
// allocate nothing.
type compiledState struct {
	cur      drawCursor
	segments []int
	shifts   []int
	// kern runs the trials, and cur stays unused, when no stream form
	// takes the Program's surface.
	kern *Kernel
}

// Program is a compiled trial kernel: the decision-stream stages for one
// IR plus a pool of scratch states. A Program is immutable after Compile
// and safe for concurrent batch calls; it stays valid even after
// eviction from a plan cache.
type Program struct {
	ir KernelIR
	// segments draws one program prefix and settles Threads copies of
	// it into st.segments (Γ_k = γ_k + 2). It is nil when no stream form
	// takes the surface: the table kernel's loops run those trials.
	segments func(st *compiledState)
	// disjoint reads the shifts for st.segments from the shift stream
	// and reports the event A.
	disjoint func(st *compiledState) bool
	// thr holds the decision streams' raw thresholds. The segment stage
	// reads the first segStreams, the shift stage up to allStreams.
	thr                    [maxStreams]uint64
	segStreams, allStreams int
	pool                   sync.Pool
}

// Compile lowers the IR into a Program: the no-settle form on an empty
// permission mask, else compileStreams' forms where they take the
// surface, else the table kernel's loops.
func (ir *KernelIR) Compile() (*Program, error) {
	mask, swapThr, ok := ir.uniformSwap()
	if !ok {
		return nil, fmt.Errorf("%w: per-pair swap thresholds", ErrNotCompilable)
	}
	if ir.ShiftThr == alwaysThr {
		// A certain geometric success never terminates; the reference
		// engine has the same behavior, but refuse to compile it.
		return nil, fmt.Errorf("%w: shift success probability 1", ErrNotCompilable)
	}
	p := &Program{ir: *ir}
	p.pool.New = func() any { return p.newState() }
	if mask == [4]uint8{} {
		p.compileNoSettle()
	} else {
		p.compileStreams(mask, swapThr)
	}
	corePlansCompiled.Inc()
	return p, nil
}

// compileNoSettle lowers a surface where nothing settles onto the shift
// stream. With an empty permission mask the reference draws the prefix
// and never a swap, so the prefix's draws are skipped undecided (none
// when p ∈ {0,1}), every Γ is 2, and the shifts are runs of the shift
// stream.
func (p *Program) compileNoSettle() {
	ir := &p.ir
	if ir.ShiftThr == neverThr || ir.ShiftThr >= 1<<53 {
		return
	}
	m := ir.PrefixLen
	if ir.StoreThr == neverThr || ir.StoreThr == alwaysThr {
		m = 0
	}
	p.thr[0], p.allStreams = ir.ShiftThr<<11, 1
	p.segments = func(st *compiledState) {
		st.cur.pos = st.cur.skip(st.cur.pos, m)
		for t := range st.segments {
			st.segments[t] = 2
		}
	}
	p.disjoint = streamDisjoint(ir.Threads, 0)
}

// compileStreams lowers the all-interior lattice point — probabilistic
// prefix, general masked settling, geometric shifts, m ≤ 64 — onto the
// cursor's decision streams when one of the forms below takes its
// surface; Compile hands it only a non-empty permission mask, so s > 0.
// Edge variants (p ∈ {0,1}, s = 1, shift probability 0), prefixes wider
// than one word and the surfaces neither form covers leave p.segments
// nil, and the table kernel's loops run them.
//
// Three facts make the streams enough:
//
//   - Every draw is one threshold decision, so the refill decides a
//     whole buffer at once and the trial reads bits: the prefix is one
//     m-bit extraction (bit = kind, LD=0, ST=1).
//   - A settling walk stops at its first failed draw, at a kind its
//     permission row forbids (no draw), or at the top (no draw). The
//     first is a run of ones in the swap stream; the other two are one
//     limit, the distance to the highest element below the walker whose
//     kind the row forbids. So a walk is s = min(run, limit), consuming
//     s draws plus the failure when run < limit — one bit scan instead
//     of a branch per draw.
//   - A geometric shift is a run of ones in the shift stream.
//
// Elements walk in position order, and each is visited at its ORIGINAL
// position with its original kind — settling only disturbs positions
// below the element being walked — so which elements walk at all (those
// whose permission row is not all-zero) is a pure function of the drawn
// prefix. A walk from at to at−s moves every element it passes up one
// place, so a limit needs only the highest position of each blocking
// kind, never the settling order. The surface takes one of two forms
// here, from the IR:
//
//   - WO: every row and both critical columns admit both kinds, so no
//     walk ever blocks. The prefix draws are skipped undecided, and only
//     the critical walks' outcomes are read; skipWalks consumes the
//     others a window at a time (freeSegments).
//   - One blocking kind: its highest position, one integer per copy,
//     sets every limit (blockerSegments). TSO, PSO, LRO and RMO.
//
// Every registered model with a non-empty relaxation set takes one of
// them. The other surfaces — the two both kinds block, {ST/LD, LD/ST}
// and {LD/LD, ST/ST}, and four whose blocking kind never walks or is
// passed by the other kind's walkers — run on the table kernel.
//
// The draws, their order and the final generator state are exactly the
// table kernel's (and hence the reference's).
func (p *Program) compileStreams(mask [4]uint8, swapThr uint64) {
	ir := &p.ir
	storeThr, shiftThr, m := ir.StoreThr, ir.ShiftThr, ir.PrefixLen
	if storeThr == neverThr || storeThr == alwaysThr || swapThr == alwaysThr ||
		shiftThr == neverThr || shiftThr == alwaysThr || m > 64 ||
		storeThr >= 1<<53 || swapThr >= 1<<53 || shiftThr >= 1<<53 {
		return
	}
	// Lower the permission surfaces onto binary kinds: rowAllow{0,1}
	// bit k permits a moving LD/ST to settle past prev kind k,
	// ldAllow/stAllow bit k lets the critical LD/ST settle past kind k.
	var rowAllow [2]uint8
	var ldAllow, stAllow uint8
	for prev := 0; prev < 2; prev++ {
		rowAllow[0] |= (mask[prev] >> kindLoad & 1) << uint(prev)
		rowAllow[1] |= (mask[prev] >> kindStore & 1) << uint(prev)
		ldAllow |= (mask[prev] >> kindCritLoad & 1) << uint(prev)
		stAllow |= (mask[prev] >> kindCritStore & 1) << uint(prev)
	}
	orderFree := rowAllow == [2]uint8{3, 3} && ldAllow == 3 && stAllow == 3
	b, blocked := blockerKind(rowAllow, ldAllow, stAllow)
	if !orderFree && !blocked {
		return
	}

	// One stream per distinct threshold. Thresholds compare the 53-bit
	// variate word>>11; pre-shifting them compares the raw word instead.
	// Exact because ⌊d/2¹¹⌋ < t ⟺ d < t·2¹¹, and the gate above keeps
	// t·2¹¹ from wrapping. The segment stage's streams come first, so a
	// products fill need not build the shift stream.
	n := 0
	streamOf := func(thr uint64) int {
		for k := 0; k < n; k++ {
			if p.thr[k] == thr<<11 {
				return k
			}
		}
		p.thr[n] = thr << 11
		n++
		return n - 1
	}
	storeK := 0
	if !orderFree {
		storeK = streamOf(storeThr)
	}
	swapK := streamOf(swapThr)
	p.segStreams = n
	shiftK := streamOf(shiftThr)
	p.allStreams = n

	if orderFree {
		p.segments = freeSegments(m, swapK)
	} else {
		p.segments = blockerSegments(m, b, storeK, swapK, rowAllow, ldAllow, stAllow)
	}
	p.disjoint = streamDisjoint(ir.Threads, shiftK)
}

// critical reads one copy's two critical walks and returns its window
// growth a−b: the critical LD walks down from position m−1 past a ≤
// ldLimit elements, and the critical ST follows past b ≤ min(a, stLimit)
// of them (the LD itself blocks it: same location, no draw).
func (c *drawCursor) critical(k int, r reader, ldLimit, stLimit int) (int, reader) {
	a, ok := r.capped(ldLimit)
	if !ok {
		a, r = c.runSlow(k, r, ldLimit)
	}
	limit := min(a, stLimit)
	b, ok := r.capped(limit)
	if !ok {
		b, r = c.runSlow(k, r, limit)
	}
	return a - b, r
}

// freeSegments is the segment stage for a surface that never blocks
// (WO): walk at has limit at, and only the critical walks' outcomes are
// read. The walks below runGuard read one capped each; skipWalks
// consumes the rest.
func freeSegments(m, swapK int) func(*compiledState) {
	short := min(m, runGuard)
	return func(st *compiledState) {
		cur, segments := &st.cur, st.segments
		rd := cur.reader(swapK, cur.skip(cur.pos, m))
		for t := range segments {
			for at := 1; at < short; at++ {
				if _, ok := rd.capped(at); !ok {
					_, rd = cur.runSlow(swapK, rd, at)
				}
			}
			rd = cur.skipWalks(swapK, rd, short, m)
			var g int
			g, rd = cur.critical(swapK, rd, m, m)
			segments[t] = g + 2
		}
		cur.pos = rd.pos()
	}
}

// blockerKind reports the kind b that alone blocks the surface's walks,
// if blockerSegments can keep its highest position in one integer: that
// needs every b past position 0 to walk, so that the walks alone keep
// the position current, and every walker of the other kind to pass only
// its own kind, leaving it alone.
func blockerKind(rowAllow [2]uint8, ldAllow, stAllow uint8) (int, bool) {
	for b := range 2 {
		other := uint8(1) << uint(1-b) // admits only the other kind: blocked by b
		fits := func(allow uint8) bool { return allow == 0 || allow == 3 || allow == other }
		if (rowAllow[b] == other || rowAllow[b] == 3) &&
			(rowAllow[1-b] == 0 || rowAllow[1-b] == other) && fits(ldAllow) && fits(stAllow) {
			return b, true
		}
	}
	return 0, false
}

// blockerSegments is the segment stage for a surface whose walks only
// kind b blocks (blockerKind). Each limit is the distance to the highest
// b below the walker, kept in one integer hb. A walker of kind b either
// passes only the other kind (TSO, PSO, LRO) and so becomes the highest
// b, at at−s; or passes both (RMO), never blocks, and moves hb up one
// place when it passes it. That choice is made here, not per walk.
func blockerSegments(m, b, storeK, swapK int, rowAllow [2]uint8, ldAllow, stAllow uint8) func(*compiledState) {
	// sel[k] selects whether prefix kind k walks at all; position 0
	// never walks.
	var sel [2]uint64
	for k, allow := range rowAllow {
		if allow != 0 {
			sel[k] = ^uint64(0)
		}
	}
	all := uint64(1)<<uint(m) - 1
	var flip uint64 // typ^flip marks the positions of kind b
	if b == kindLoad {
		flip = ^uint64(0)
	}
	// A critical walk's limit is base − (hb+1)&blk: 0 when its column
	// admits neither kind, m when it admits both, the distance to the
	// highest b when it admits the other kind only.
	critLimit := func(allow uint8) (base, blk int) {
		switch allow {
		case 0:
			return 0, 0
		case 3:
			return m, 0
		}
		return m, -1
	}
	ldBase, ldBlk := critLimit(ldAllow)
	stBase, stBlk := critLimit(stAllow)
	if rowAllow[b] == 3 {
		return func(st *compiledState) {
			cur, segments := &st.cur, st.segments
			typ, pos := cur.take(storeK, cur.pos, m)
			rd := cur.reader(swapK, pos)
			elems := (typ&sel[1] | ^typ&sel[0]) & all &^ 1
			bs := (typ ^ flip) & all
			for t := range segments {
				hb := int(bs&1) - 1
				for e := elems; e != 0; e &= e - 1 {
					at := bits.TrailingZeros64(e)
					isB := -int(bs >> uint(at) & 1)
					// A walker of kind b never blocks; the other kind
					// stops below hb.
					limit := at - (hb+1)&^isB
					s, ok := rd.capped(limit)
					if !ok {
						s, rd = cur.runSlow(swapK, rd, limit)
					}
					// A walker of kind b lands at at−s, above hb unless
					// it passed hb, which then moves up one.
					d := hb - (at - s)
					up := at - s + (d+1)&^(d>>(bits.UintSize-1))
					hb ^= (hb ^ up) & isB
				}
				var g int
				g, rd = cur.critical(swapK, rd, ldBase-(hb+1)&ldBlk, stBase-(hb+1)&stBlk)
				segments[t] = g + 2
			}
			cur.pos = rd.pos()
		}
	}
	return func(st *compiledState) {
		cur, segments := &st.cur, st.segments
		typ, pos := cur.take(storeK, cur.pos, m)
		rd := cur.reader(swapK, pos)
		elems := (typ&sel[1] | ^typ&sel[0]) & all &^ 1
		bs := (typ ^ flip) & all
		for t := range segments {
			hb := int(bs&1) - 1
			for e := elems; e != 0; e &= e - 1 {
				at := bits.TrailingZeros64(e)
				limit := at - 1 - hb
				s, ok := rd.capped(limit)
				if !ok {
					s, rd = cur.runSlow(swapK, rd, limit)
				}
				// A walker of kind b is now the highest b.
				hb ^= (hb ^ (at - s)) & -int(bs>>uint(at)&1)
			}
			var g int
			g, rd = cur.critical(swapK, rd, ldBase-(hb+1)&ldBlk, stBase-(hb+1)&stBlk)
			segments[t] = g + 2
		}
		cur.pos = rd.pos()
	}
}

// streamDisjoint is the decision-stream shift stage: the n geometric
// shifts as runs of the shift stream, then the disjointness check — the
// n = 2 single pair, or the general nested scan.
func streamDisjoint(threads, shiftK int) func(*compiledState) bool {
	if threads == 2 {
		return func(st *compiledState) bool {
			cur, seg := &st.cur, st.segments
			rd := cur.reader(shiftK, cur.pos)
			s0, ok := rd.capped(geomCap)
			if !ok {
				s0, rd = cur.runSlow(shiftK, rd, maxRun)
			}
			s1, ok := rd.capped(geomCap)
			if !ok {
				s1, rd = cur.runSlow(shiftK, rd, maxRun)
			}
			cur.pos = rd.pos()
			return s0 > s1+seg[1] || s1 > s0+seg[0]
		}
	}
	return func(st *compiledState) bool {
		cur, shifts := &st.cur, st.shifts
		rd := cur.reader(shiftK, cur.pos)
		for i := range shifts {
			s, ok := rd.capped(geomCap)
			if !ok {
				s, rd = cur.runSlow(shiftK, rd, maxRun)
			}
			shifts[i] = s
		}
		cur.pos = rd.pos()
		return disjointShifts(shifts, st.segments)
	}
}

// disjointShifts reports whether the closed windows [sᵢ, sᵢ+Γᵢ] are
// pairwise disjoint.
func disjointShifts(shifts, seg []int) bool {
	n := len(shifts)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if shifts[i] <= shifts[j]+seg[j] && shifts[j] <= shifts[i]+seg[i] {
				return false
			}
		}
	}
	return true
}

// newState builds one scratch state: the decision streams' thresholds
// and the stages' buffers, or the table kernel where no stream form
// takes the surface.
func (p *Program) newState() *compiledState {
	if p.segments == nil {
		return &compiledState{kern: p.ir.NewKernel()}
	}
	st := &compiledState{
		segments: make([]int, p.ir.Threads),
		shifts:   make([]int, p.ir.Threads),
	}
	st.cur.thr = p.thr
	return st
}

// FillBits evaluates n consecutive no-bug trials into out under the
// mc.BatchTrialBits contract (LSB-first, unused final-word bits zero),
// bit-identical to Kernel.FillBits on the same source, including the
// source's final state. Zero steady-state allocations.
func (p *Program) FillBits(src *rng.Source, out []uint64, n int) error {
	st := p.pool.Get().(*compiledState)
	defer p.pool.Put(st)
	if k := st.kern; k != nil {
		return k.FillBits(src, out, n)
	}
	st.cur.attach(src, p.allStreams)
	words := out[:mc.BitWords(n)]
	for w := range words {
		words[w] = 0
	}
	for i := 0; i < n; i++ {
		p.segments(st)
		if p.disjoint(st) {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	st.cur.sync()
	return nil
}

// FillProducts evaluates len(out) consecutive Theorem 6.1 product
// trials into out under the mc.BatchMean contract, bit-identical to the
// ProductTrial closure on the same source, including the source's final
// state. It runs the segment stage alone: a product trial draws no
// shifts. Zero steady-state allocations.
func (p *Program) FillProducts(src *rng.Source, out []float64) error {
	st := p.pool.Get().(*compiledState)
	defer p.pool.Put(st)
	if k := st.kern; k != nil {
		for i := range out {
			k.sampleSegments(src)
			out[i] = productOf(k.segments)
		}
		return nil
	}
	st.cur.attach(src, p.segStreams)
	for i := range out {
		p.segments(st)
		out[i] = productOf(st.segments)
	}
	st.cur.sync()
	return nil
}

// BatchBits adapts the program to the mc harness's bitset batch
// interface. The program is shared across the harness's concurrent
// per-chunk calls; each call draws a private state from the pool.
func (p *Program) BatchBits() mc.BatchTrialBits { return p.FillBits }

// CompiledNoBugBits returns the bitset batch for the config on the
// compiler engine, compiling through the default plan cache (repeated
// queries share one Program). An invalid config fails before it reaches
// the cache.
func (c Config) CompiledNoBugBits() (mc.BatchTrialBits, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	prog, err := DefaultPlanCache().Lookup(c)
	if err != nil {
		return nil, err
	}
	return prog.BatchBits(), nil
}
