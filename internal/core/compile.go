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
// resolves all of that once, at query time, into monomorphized closures:
//
//   - the swap surface collapses to a per-row permission mask plus one
//     uniform threshold (memmodel.Uniform guarantees every permitted
//     pair shares a threshold);
//   - the all-interior lattice point (0 < p, s < 1, m ≤ 64) runs on
//     bit-sliced decision streams: every refill of the bulk draw buffer
//     turns its words into one success bitmask per distinct threshold,
//     and the trial reads its prefix as one m-bit extraction, each
//     settling walk and each geometric shift as a run of ones found with
//     a bit scan (compileStreams);
//   - the p ∈ {0,1} draw-free edges — constant program prefix, s = 0
//     (settling never moves anything, γ ≡ 0) and s = 1 (a deterministic
//     settling walk) — and prefixes wider than one word run on composed
//     per-draw closures that touch the RNG exactly as often as the
//     reference does;
//   - loop bounds (m, n) and thresholds are captured constants.
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
// runs. The composed closures draw from src directly and leave the
// buffer unfilled, so sync has nothing to undo for them.
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
// which will read the first nstreams decision streams (0 for the
// composed closures).
func (c *drawCursor) attach(src *rng.Source, nstreams int) {
	c.src, c.pos, c.nstreams = src, cursorWords, nstreams
}

// refillStreams snapshots the source, bulk-fills the buffer and decides
// every draw of it against each stream's threshold, 64 draws per word.
// The caller continues at position 0.
func (c *drawCursor) refillStreams() {
	c.snap = c.src.State()
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

// skip consumes m ≤ 64 draws whose decisions nothing reads.
func (c *drawCursor) skip(pos, m int) int {
	if m > cursorWords-pos {
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
	capped := d >> 63 // -1 when the limit comes first
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
	typ      []uint8
	order    []uint8
	segments []int
	shifts   []int
}

// Program is a compiled trial kernel: the monomorphized closures for one
// IR plus a pool of scratch states. A Program is immutable after Compile
// and safe for concurrent batch calls; it stays valid even after
// eviction from a plan cache.
type Program struct {
	ir KernelIR
	// segments draws one program prefix and settles Threads copies of
	// it into st.segments (Γ_k = γ_k + 2): the decision-stream stage at
	// the all-interior lattice point, the composed prefix and settle
	// closures elsewhere.
	segments func(st *compiledState)
	// disjoint draws the shifts for st.segments and reports the event A:
	// from the decision streams when segments reads them, from the
	// source directly otherwise.
	disjoint func(st *compiledState) bool
	// thr holds the decision streams' raw thresholds. The segment stage
	// reads the first segStreams, the shift stage up to allStreams; both
	// are 0 on the composed closures.
	thr                    [maxStreams]uint64
	segStreams, allStreams int
	// constTyp is the compile-time program prefix when p ∈ {0,1}.
	constTyp []uint8
	pool     sync.Pool
}

// Compile lowers the IR into a monomorphized Program: the
// decision-stream stages where compileStreams takes the lattice point,
// else one composed variant per coordinate (prefix × settle × disjoint).
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
	if !p.compileStreams(mask, swapThr) {
		prefix := compilePrefix(ir, p)
		settle := compileSettle(ir, mask, swapThr)
		p.segments = func(st *compiledState) {
			prefix(st)
			for t := range st.segments {
				st.segments[t] = settle(st) + 2
			}
		}
		p.disjoint = compileDisjoint(ir)
	}
	corePlansCompiled.Inc()
	return p, nil
}

// compileStreams lowers the all-interior lattice point — probabilistic
// prefix, general masked settling, geometric shifts, m ≤ 64 — onto the
// cursor's decision streams and reports whether it did. Edge variants
// (p ∈ {0,1}, s ∈ {0,1}, an empty relaxation set, shift probability 0)
// and prefixes wider than one word stay on the composed closures.
//
// Three facts make the streams enough:
//
//   - Every draw is one threshold decision, so the refill decides a
//     whole buffer at once and the trial reads bits: the prefix is one
//     m-bit extraction (bit = kind, LD=0, ST=1), and the prefix and the
//     settling order fit one uint64 register (the critical pair never
//     enters the walked sequence).
//   - A settling walk stops at its first failed draw, at a kind its
//     permission row forbids (no draw), or at the top (no draw). The
//     first is a run of ones in the swap stream; the other two are one
//     limit, the distance to the nearest blocking kind below the
//     walker, found with bits.Len64 on the order register. So a walk is
//     s = min(run, limit), consuming s draws plus the failure when
//     run < limit — one bit scan instead of a branch per draw.
//   - A geometric shift is a run of ones in the shift stream.
//
// Elements walk in position order, and each is visited at its ORIGINAL
// position with its original kind — settling only disturbs positions
// below the element being walked — so which elements walk at all (those
// whose permission row is not all-zero) is a pure function of the drawn
// prefix. When every permission row and both critical columns admit
// both kinds (WO), no walk ever blocks: the order register is dropped,
// the prefix draws are skipped undecided, and each walk is a pure skip
// along the swap stream.
//
// The draws, their order and the final generator state are exactly the
// composed closures' (and hence the reference kernel's).
func (p *Program) compileStreams(mask [4]uint8, swapThr uint64) bool {
	ir := &p.ir
	storeThr, shiftThr, m := ir.StoreThr, ir.ShiftThr, ir.PrefixLen
	if storeThr == neverThr || storeThr == alwaysThr ||
		swapThr == neverThr || swapThr == alwaysThr || mask == [4]uint8{} ||
		shiftThr == neverThr || shiftThr == alwaysThr || m > 64 ||
		storeThr >= 1<<53 || swapThr >= 1<<53 || shiftThr >= 1<<53 {
		return false
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
		p.segments = func(st *compiledState) {
			cur, segments := &st.cur, st.segments
			rd := cur.reader(swapK, cur.skip(cur.pos, m))
			for t := range segments {
				for at := 1; at < m; at++ {
					if _, ok := rd.capped(at); !ok {
						_, rd = cur.runSlow(swapK, rd, at)
					}
				}
				a, ok := rd.capped(m)
				if !ok {
					a, rd = cur.runSlow(swapK, rd, m)
				}
				b, ok := rd.capped(a)
				if !ok {
					b, rd = cur.runSlow(swapK, rd, a)
				}
				segments[t] = a - b + 2
			}
			cur.pos = rd.pos()
		}
	} else {
		p.segments = orderedSegments(m, storeK, swapK, rowAllow, ldAllow, stAllow)
	}
	p.disjoint = streamDisjoint(ir.Threads, shiftK)
	return true
}

// blocking lowers a permission row (bit k: may settle past kind k) to
// the pair of masks whose combination o&st | ^o&ld marks, in an order
// register o, the positions holding a kind the row forbids.
func blocking(allow uint8) (st, ld uint64) {
	if allow>>kindStore&1 == 0 {
		st = ^uint64(0)
	}
	if allow>>kindLoad&1 == 0 {
		ld = ^uint64(0)
	}
	return st, ld
}

// orderedSegments is the segment stage for permission surfaces that
// block some walks: it keeps the settling order in a register and caps
// each walk at the nearest blocking kind below it.
func orderedSegments(m, storeK, swapK int, rowAllow [2]uint8, ldAllow, stAllow uint8) func(*compiledState) {
	// sel[k] selects whether prefix kind k walks at all; position 0
	// never walks.
	var sel [2]uint64
	var blockST, blockLD [2]uint64
	for k := range sel {
		if rowAllow[k] != 0 {
			sel[k] = ^uint64(0)
		}
		blockST[k], blockLD[k] = blocking(rowAllow[k])
	}
	// When no walking row admits both kinds (TSO, PSO, LRO), every
	// element a walker passes is of the one kind its row admits, so a
	// walk only exchanges the walker's bit with its landing position's:
	// flip[k] is set when kind k differs from the kind it passes.
	single := true
	var flip [2]uint64
	for k, allow := range rowAllow {
		switch allow {
		case 3:
			single = false
		case 1 << kindLoad, 1 << kindStore:
			if allow>>uint(k)&1 == 0 {
				flip[k] = ^uint64(0)
			}
		}
	}
	ldST, ldLD := blocking(ldAllow)
	stST, stLD := blocking(stAllow)
	all := uint64(1)<<uint(m) - 1
	rangeMask := all &^ 1
	return func(st *compiledState) {
		cur, segments := &st.cur, st.segments
		typ, pos := cur.take(storeK, cur.pos, m)
		rd := cur.reader(swapK, pos)
		elems := (typ&sel[1] | ^typ&sel[0]) & rangeMask
		for t := range segments {
			o := typ
			for e := elems; e != 0; e &= e - 1 {
				// Walk the element at position at down past s elements,
				// then patch o once: exchange two bits, or in general
				// drop the moving bit, close the gap and land the
				// element s places down. At s = 0 either patch leaves o
				// as it is, so neither needs a branch.
				at := bits.TrailingZeros64(e)
				moving := typ >> uint(at) & 1
				// The blockers below at, shifted up over a set bit 0:
				// the scan then never sees zero and needs no guard.
				blk := (o&blockST[moving] | ^o&blockLD[moving]) << 1 & (2<<uint(at&63) - 1)
				limit := at + 1 - bits.Len64(blk|1)
				s, ok := rd.capped(limit)
				if !ok {
					s, rd = cur.runSlow(swapK, rd, limit)
				}
				// Shift counts are masked to 6 bits, which drops the
				// compiler's ≥ 64 guards: s and lo are at most 63, and a
				// shift by lo+1 = 64 only ever moves an empty seg.
				lo, u := uint(at-s)&63, uint(s)&63
				if single {
					o ^= flip[moving] & (1<<lo ^ 1<<uint(at&63))
				} else {
					seg := o >> lo & (1<<u - 1)
					o = o&^((2<<u-1)<<lo) | seg<<((lo+1)&63) | moving<<lo
				}
			}
			// The critical LD walks down from position m-1; the critical
			// ST follows past at most the a elements the LD passed (the
			// LD itself blocks it: same location, no draw).
			limit := m - bits.Len64((o&ldST|^o&ldLD)&all)
			a, ok := rd.capped(limit)
			if !ok {
				a, rd = cur.runSlow(swapK, rd, limit)
			}
			limit = min(a, m-bits.Len64((o&stST|^o&stLD)&all))
			b, ok := rd.capped(limit)
			if !ok {
				b, rd = cur.runSlow(swapK, rd, limit)
			}
			segments[t] = a - b + 2
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

// compilePrefix selects the program-prefix generator variant.
func compilePrefix(ir *KernelIR, p *Program) func(*compiledState) {
	switch thr := ir.StoreThr; thr {
	case neverThr, alwaysThr:
		// Draw-free edge: the prefix is a compile-time constant, baked
		// into every pooled state by newState. The reference engine
		// draws nothing here either (sentinel short-circuit).
		kind := uint8(kindLoad)
		if thr == alwaysThr {
			kind = kindStore
		}
		p.constTyp = make([]uint8, ir.PrefixLen)
		for i := range p.constTyp {
			p.constTyp[i] = kind
		}
		return func(*compiledState) {}
	default:
		return func(st *compiledState) {
			typ, src := st.typ, st.cur.src
			for i := range typ {
				k := uint8(kindLoad)
				if src.Uint64()>>11 < thr {
					k = kindStore
				}
				typ[i] = k
			}
		}
	}
}

// compileSettle selects the settling variant for the uniform swap
// surface: γ ≡ 0 when no pair may ever swap, a deterministic draw-free
// walk when every permitted swap succeeds, and the general single-
// threshold masked loop otherwise.
func compileSettle(ir *KernelIR, mask [4]uint8, swapThr uint64) func(*compiledState) int {
	// Column masks for the critical rounds: bit prev set iff the
	// critical LD (resp. ST) may settle past kind prev.
	var ldMask, stMask uint8
	for prev := 0; prev < 4; prev++ {
		ldMask |= (mask[prev] >> kindCritLoad & 1) << uint(prev)
		stMask |= (mask[prev] >> kindCritStore & 1) << uint(prev)
	}
	m := ir.PrefixLen
	allZero := mask == [4]uint8{}
	switch {
	case allZero || swapThr == neverThr:
		// s = 0 (or SC's empty relaxation set): nothing ever settles
		// anywhere, γ ≡ 0, and the reference draws nothing either.
		return func(*compiledState) int { return 0 }
	case swapThr == alwaysThr:
		// s = 1: every permitted swap succeeds — settling is a
		// deterministic, draw-free walk over the permission masks.
		return func(st *compiledState) int {
			order := st.order
			copy(order, st.typ)
			for r := 2; r <= m; r++ {
				pos := r - 1
				moving := order[pos] & 3
				bit := uint8(1) << moving
				for pos > 0 {
					prev := order[pos-1] & 3
					if mask[prev]&bit == 0 {
						break
					}
					order[pos], order[pos-1] = prev, moving
					pos--
				}
			}
			a := 0
			for a < m && ldMask>>(order[m-1-a]&3)&1 == 1 {
				a++
			}
			b := 0
			for b < a && stMask>>(order[m-1-b]&3)&1 == 1 {
				b++
			}
			return a - b
		}
	default:
		// General uniform surface: one threshold in a register, one
		// mask test per attempt, one draw per permitted attempt — the
		// same draws, in the same order, as the interpreter's table
		// walk.
		return func(st *compiledState) int {
			order := st.order
			copy(order, st.typ)
			src := st.cur.src
			for r := 2; r <= m; r++ {
				pos := r - 1
				moving := order[pos] & 3
				bit := uint8(1) << moving
				for pos > 0 {
					prev := order[pos-1] & 3
					if mask[prev]&bit == 0 || src.Uint64()>>11 >= swapThr {
						break
					}
					order[pos], order[pos-1] = prev, moving
					pos--
				}
			}
			a := 0
			for a < m {
				if ldMask>>(order[m-1-a]&3)&1 == 0 || src.Uint64()>>11 >= swapThr {
					break
				}
				a++
			}
			b := 0
			for b < a { // b == a is the critical LD: same location, no draw
				if stMask>>(order[m-1-b]&3)&1 == 0 || src.Uint64()>>11 >= swapThr {
					break
				}
				b++
			}
			return a - b
		}
	}
}

// compileDisjoint selects the composed shifted-disjointness variant: the
// n = 2 single pair check, or the general nested scan.
func compileDisjoint(ir *KernelIR) func(*compiledState) bool {
	thr := ir.ShiftThr
	if ir.Threads == 2 {
		return func(st *compiledState) bool {
			src := st.cur.src
			s0 := geometricDraw(src, thr)
			s1 := geometricDraw(src, thr)
			seg := st.segments
			// Closed-interval disjointness of [s0, s0+Γ0] and [s1, s1+Γ1].
			return s0 > s1+seg[1] || s1 > s0+seg[0]
		}
	}
	return func(st *compiledState) bool {
		src, shifts := st.cur.src, st.shifts
		for i := range shifts {
			shifts[i] = geometricDraw(src, thr)
		}
		return disjointShifts(shifts, st.segments)
	}
}

// geometricDraw replays rng-draw-identical geometric sampling: count
// successes below thr until the first failure. thr == neverThr draws
// nothing, exactly as the reference's sentinel guard.
func geometricDraw(src *rng.Source, thr uint64) int {
	if thr == neverThr {
		return 0
	}
	s := 0
	for src.Uint64()>>11 < thr {
		s++
	}
	return s
}

// newState builds one scratch state, prefilling the constant prefix of
// the draw-free prefix variants and the decision streams' thresholds.
func (p *Program) newState() *compiledState {
	st := &compiledState{
		typ:      make([]uint8, p.ir.PrefixLen),
		order:    make([]uint8, p.ir.PrefixLen),
		segments: make([]int, p.ir.Threads),
		shifts:   make([]int, p.ir.Threads),
	}
	copy(st.typ, p.constTyp)
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
