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
//     uniform threshold held in a register (memmodel.Uniform guarantees
//     every permitted pair shares a threshold);
//   - the p ∈ {0,1} draw-free edges — constant program prefix, s = 0
//     (settling never moves anything, γ ≡ 0) and s = 1 (a deterministic
//     settling walk) — are resolved at compile time into variants that
//     touch the RNG exactly as often as the reference does: never;
//   - loop bounds (m, n) and thresholds are captured constants;
//   - every draw comes from a bulk-filled word buffer (drawCursor over
//     rng.FillUint64s) instead of a per-draw generator step, amortizing
//     the xoshiro state round-trip across a whole buffer.
//
// The only correctness gate is bit-identity with the table-driven kernel
// and the reference oracle (Config.ReferenceNoBugBits) on the same
// source — same draws, same order, same final generator state — which
// the cross-engine property tests (compile_test.go) enforce across the
// full parameter lattice. A hand-built IR the compiler cannot specialize
// (per-pair swap thresholds, which Config.BuildIR never emits) reports
// ErrNotCompilable.

// ErrNotCompilable reports an IR outside the compiler's specialization
// lattice; the table-driven kernel handles every IR.
var ErrNotCompilable = errors.New("core: IR not compilable")

// cursorWords is the bulk-draw buffer size (8 KiB). A batch call wastes
// at most one buffer of generated-but-unconsumed words (resynchronized
// by drawCursor.sync), well under 1% of a chunk's draws.
const cursorWords = 1024

// drawCursor serves 53-bit draws from a bulk-filled word buffer while
// keeping the underlying source externally indistinguishable from
// sequential Uint64 consumption. The mc harness calls a batch function
// repeatedly on the same source (sub-batches between cancellation
// checks) and asserts the source's final state matches the per-draw
// route, so the cursor snapshots the generator state before each refill
// and, on sync, rewinds and re-advances by exactly the draws consumed.
type drawCursor struct {
	src *rng.Source
	// pos is the next unconsumed word; pos == cursorWords means the
	// buffer is spent (and doubles as the attach-time "never filled"
	// sentinel, keeping v53's empty test a compare against a constant —
	// that is what fits it under the inlining budget).
	pos  int
	snap [4]uint64
	buf  [cursorWords]uint64
}

// attach binds the cursor to a source at the start of a batch call.
func (c *drawCursor) attach(src *rng.Source) {
	c.src, c.pos = src, cursorWords
}

// next returns the next draw's raw word; callers shift by 11 for the
// 53-bit variate drawThreshold compares against. The body is tuned to
// sit just under the compiler's inlining budget (cost 79 of 80 — the
// refill call's fixed charge leaves no room for even the shift, which
// is why it lives at the call sites), so a buffered draw compiles to a
// compare, an array load, and an increment.
func (c *drawCursor) next() uint64 {
	pos := c.pos
	if pos == cursorWords {
		return c.refillWord()
	}
	c.pos++
	return c.buf[pos]
}

// refillWord snapshots the source, bulk-fills the buffer, and serves the
// buffer's first word.
func (c *drawCursor) refillWord() uint64 {
	c.snap = c.src.State()
	c.src.FillUint64s(c.buf[:])
	c.pos = 1
	return c.buf[0]
}

// refill is refillWord for the fused trial closure, which keeps the
// cursor position in a local and writes it back once per trial: it
// snapshots and fills but serves nothing, leaving the position at 0 for
// the caller's local to take over.
func (c *drawCursor) refill() {
	c.snap = c.src.State()
	c.src.FillUint64s(c.buf[:])
	c.pos = 0
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
	// prefix fills st.typ with one generated program prefix (a no-op
	// for the p ∈ {0,1} constant-prefix variants, prefilled in newState).
	prefix func(st *compiledState)
	// settle returns γ for one settled copy of st.typ.
	settle func(st *compiledState) int
	// disjoint draws the shifts for st.segments and reports the event A.
	disjoint func(st *compiledState) bool
	// trial, when non-nil, is the fused fast path for the all-interior
	// lattice point: prefix, settling, and disjointness in one closure
	// that holds the draw-cursor position in a register for the whole
	// trial (see compileFusedTrial). Draw-identical to the composed
	// closures above, which remain the engine for every edge variant.
	trial func(st *compiledState) bool
	// constTyp is the compile-time program prefix when p ∈ {0,1}.
	constTyp []uint8
	pool     sync.Pool
}

// Compile lowers the IR into a monomorphized Program, selecting one
// variant per lattice coordinate (prefix × settle × disjoint).
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
	p.prefix = compilePrefix(ir, p)
	p.settle = compileSettle(ir, mask, swapThr)
	p.disjoint = compileDisjoint(ir)
	p.trial = compileFusedTrial(ir, mask, swapThr)
	corePlansCompiled.Inc()
	return p, nil
}

// compileFusedTrial lowers the all-interior lattice point — probabilistic
// prefix, general masked settling, geometric shifts — into one fused
// closure built on two register-residency tricks the composed closures
// cannot use:
//
//   - the draw-cursor position lives in a local from the first prefix
//     draw to the last shift draw, written back once per trial (the
//     composed closures round-trip it through memory on every draw), and
//     the buffer index is masked so the bounds check vanishes;
//   - the program prefix and the settling order are bit-packed into one
//     uint64 (prefix kinds are binary — LD or ST — and the critical pair
//     never enters the walked sequence), so the bubble walk reads,
//     tests, and swaps register bits instead of byte-array elements, and
//     "copy the prefix per thread" is a register move.
//
// The draw sequence is identical to the composed path (and hence to the
// reference kernel): every permission test short-circuits before its
// draw, exactly as the interpreter's sentinel guards do. Edge variants
// (p ∈ {0,1}, s ∈ {0,1}, shift probability 0) and prefixes wider than
// one word return nil and stay on the composed closures.
func compileFusedTrial(ir *KernelIR, mask [4]uint8, swapThr uint64) func(*compiledState) bool {
	storeThr, shiftThr, m := ir.StoreThr, ir.ShiftThr, ir.PrefixLen
	if storeThr == neverThr || storeThr == alwaysThr ||
		swapThr == neverThr || swapThr == alwaysThr || mask == [4]uint8{} ||
		shiftThr == neverThr || shiftThr == alwaysThr || m > 64 ||
		storeThr >= 1<<53 || swapThr >= 1<<53 || shiftThr >= 1<<53 {
		return nil
	}
	// Thresholds compare the 53-bit variate word>>11; pre-shifting them
	// instead compares the raw word and drops one shift per draw. Exact
	// because ⌊d/2¹¹⌋ < t ⟺ d < t·2¹¹, and the gate above keeps t·2¹¹
	// from wrapping (t = 2⁵³ would, and falls back to the composed path).
	rawStore, rawSwap, rawShift := storeThr<<11, swapThr<<11, shiftThr<<11
	// Lower the permission surfaces onto binary kinds (bit = kind, LD=0,
	// ST=1): rowAllow{0,1} bit p permits a moving LD/ST to swap past prev
	// kind p, ldAllow/stAllow bit k lets the critical LD/ST settle past
	// kind k.
	var rowAllow0, rowAllow1, ldAllow, stAllow uint8
	for prev := 0; prev < 2; prev++ {
		rowAllow0 |= (mask[prev] >> kindLoad & 1) << uint(prev)
		rowAllow1 |= (mask[prev] >> kindStore & 1) << uint(prev)
		ldAllow |= (mask[prev] >> kindCritLoad & 1) << uint(prev)
		stAllow |= (mask[prev] >> kindCritStore & 1) << uint(prev)
	}
	// Elements whose permission row is all-zero break before their first
	// draw, so the walk can skip them without visiting: sel0/sel1 select
	// which prefix kinds walk at all, and the closure combines them with
	// the drawn prefix into a bitmask it jumps across with TrailingZeros
	// instead of stepping element by element. Position 0 never walks.
	var sel0, sel1 uint64
	if rowAllow0 != 0 {
		sel0 = ^uint64(0)
	}
	if rowAllow1 != 0 {
		sel1 = ^uint64(0)
	}
	rangeMask := (uint64(1)<<uint(m) - 1) &^ 1
	two := ir.Threads == 2
	return func(st *compiledState) bool {
		cur := &st.cur
		pos := cur.pos
		segments := st.segments

		var typ uint64 // bit i = kind of prefix position i
		for i := 0; i < m; i++ {
			if pos == cursorWords {
				cur.refill()
				pos = 0
			}
			if cur.buf[pos&(cursorWords-1)] < rawStore {
				typ |= 1 << uint(i)
			}
			pos++
		}

		// Elements walk in position order, and each is visited at its
		// ORIGINAL position with its original kind — settling only
		// disturbs positions below the element being walked — so the
		// visit set is a pure function of the drawn prefix, computed once
		// and jumped across bit by bit. Skipped elements are exactly
		// those whose first permission test fails: no draw, no movement.
		elems := (typ&sel1 | ^typ&sel0) & rangeMask
		for t := range segments {
			o := typ
			for e := elems; e != 0; e &= e - 1 {
				// Walk the element at position `at` down. While it
				// settles, the bits it has yet to pass keep their
				// positions, so prev kinds come from an MSB-scan register
				// (one shift per step, no re-indexing into o); o itself
				// is patched once at the end — drop the moving bit, close
				// the gap, land the element s places down.
				at := bits.TrailingZeros64(e)
				moving := typ >> uint(at) & 1
				rA := rowAllow0
				if moving != 0 {
					rA = rowAllow1
				}
				v := o << uint(64-at)
				s := 0
				for s < at {
					prev := v >> 63
					v <<= 1
					if rA>>prev&1 == 0 {
						break
					}
					if pos == cursorWords {
						cur.refill()
						pos = 0
					}
					d := cur.buf[pos&(cursorWords-1)]
					pos++
					if d >= rawSwap {
						break
					}
					s++
				}
				if s > 0 {
					seg := o >> uint(at-s) & (1<<uint(s) - 1)
					o = o&^((1<<uint(s+1)-1)<<uint(at-s)) |
						seg<<uint(at-s+1) | moving<<uint(at-s)
				}
			}
			a := 0
			va := o << uint(64-m) // MSB-first scan from position m-1
			for a < m {
				if ldAllow>>(va>>63)&1 == 0 {
					break
				}
				if pos == cursorWords {
					cur.refill()
					pos = 0
				}
				d := cur.buf[pos&(cursorWords-1)]
				pos++
				if d >= rawSwap {
					break
				}
				va <<= 1
				a++
			}
			b := 0
			vb := o << uint(64-m)
			for b < a { // b == a is the critical LD: same location, no draw
				if stAllow>>(vb>>63)&1 == 0 {
					break
				}
				if pos == cursorWords {
					cur.refill()
					pos = 0
				}
				d := cur.buf[pos&(cursorWords-1)]
				pos++
				if d >= rawSwap {
					break
				}
				vb <<= 1
				b++
			}
			segments[t] = a - b + 2
		}

		ok := false
		if two {
			s0 := 0
			for {
				if pos == cursorWords {
					cur.refill()
					pos = 0
				}
				d := cur.buf[pos&(cursorWords-1)]
				pos++
				if d >= rawShift {
					break
				}
				s0++
			}
			s1 := 0
			for {
				if pos == cursorWords {
					cur.refill()
					pos = 0
				}
				d := cur.buf[pos&(cursorWords-1)]
				pos++
				if d >= rawShift {
					break
				}
				s1++
			}
			ok = s0 > s1+segments[1] || s1 > s0+segments[0]
		} else {
			shifts := st.shifts
			for i := range shifts {
				s := 0
				for {
					if pos == cursorWords {
						cur.refill()
						pos = 0
					}
					d := cur.buf[pos&(cursorWords-1)]
					pos++
					if d >= rawShift {
						break
					}
					s++
				}
				shifts[i] = s
			}
			ok = true
			n := len(shifts)
		scan:
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if shifts[i] <= shifts[j]+segments[j] && shifts[j] <= shifts[i]+segments[i] {
						ok = false
						break scan
					}
				}
			}
		}
		cur.pos = pos
		return ok
	}
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
			typ, cur := st.typ, &st.cur
			for i := range typ {
				k := uint8(kindLoad)
				if cur.next()>>11 < thr {
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
		// mask test per attempt, one bulk-buffered draw per permitted
		// attempt — the same draws, in the same order, as the
		// interpreter's table walk.
		return func(st *compiledState) int {
			order := st.order
			copy(order, st.typ)
			cur := &st.cur
			for r := 2; r <= m; r++ {
				pos := r - 1
				moving := order[pos] & 3
				bit := uint8(1) << moving
				for pos > 0 {
					prev := order[pos-1] & 3
					if mask[prev]&bit == 0 || cur.next()>>11 >= swapThr {
						break
					}
					order[pos], order[pos-1] = prev, moving
					pos--
				}
			}
			a := 0
			for a < m {
				if ldMask>>(order[m-1-a]&3)&1 == 0 || cur.next()>>11 >= swapThr {
					break
				}
				a++
			}
			b := 0
			for b < a { // b == a is the critical LD: same location, no draw
				if stMask>>(order[m-1-b]&3)&1 == 0 || cur.next()>>11 >= swapThr {
					break
				}
				b++
			}
			return a - b
		}
	}
}

// compileDisjoint selects the shifted-disjointness variant: the n = 2
// single pair check, or the general nested scan.
func compileDisjoint(ir *KernelIR) func(*compiledState) bool {
	thr := ir.ShiftThr
	if ir.Threads == 2 {
		return func(st *compiledState) bool {
			cur := &st.cur
			s0 := geometricDraw(cur, thr)
			s1 := geometricDraw(cur, thr)
			seg := st.segments
			// Closed-interval disjointness of [s0, s0+Γ0] and [s1, s1+Γ1].
			return s0 > s1+seg[1] || s1 > s0+seg[0]
		}
	}
	return func(st *compiledState) bool {
		cur, shifts := &st.cur, st.shifts
		for i := range shifts {
			shifts[i] = geometricDraw(cur, thr)
		}
		seg := st.segments
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
}

// geometricDraw replays rng-draw-identical geometric sampling: count
// successes below thr until the first failure. thr == neverThr draws
// nothing, exactly as the reference's sentinel guard.
func geometricDraw(cur *drawCursor, thr uint64) int {
	if thr == neverThr {
		return 0
	}
	s := 0
	for cur.next()>>11 < thr {
		s++
	}
	return s
}

// newState builds one scratch state, prefilling the constant prefix and
// the constant segments of the draw-free settle variants.
func (p *Program) newState() *compiledState {
	st := &compiledState{
		typ:      make([]uint8, p.ir.PrefixLen),
		order:    make([]uint8, p.ir.PrefixLen),
		segments: make([]int, p.ir.Threads),
		shifts:   make([]int, p.ir.Threads),
	}
	copy(st.typ, p.constTyp)
	return st
}

// sample runs one iteration of the §6 generative process into
// st.segments — the compiled engine's analog of Kernel.sampleSegments.
func (p *Program) sample(st *compiledState) {
	p.prefix(st)
	for t := range st.segments {
		st.segments[t] = p.settle(st) + 2
	}
}

// FillBits evaluates n consecutive no-bug trials into out under the
// mc.BatchTrialBits contract (LSB-first, unused final-word bits zero),
// bit-identical to Kernel.FillBits on the same source, including the
// source's final state. Zero steady-state allocations.
func (p *Program) FillBits(src *rng.Source, out []uint64, n int) error {
	st := p.pool.Get().(*compiledState)
	defer p.pool.Put(st)
	st.cur.attach(src)
	words := out[:mc.BitWords(n)]
	for w := range words {
		words[w] = 0
	}
	if trial := p.trial; trial != nil {
		for i := 0; i < n; i++ {
			if trial(st) {
				words[i>>6] |= 1 << uint(i&63)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			p.sample(st)
			if p.disjoint(st) {
				words[i>>6] |= 1 << uint(i&63)
			}
		}
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
