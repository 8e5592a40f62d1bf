package mc

import (
	"context"
	"sync"
)

// Pool is a fixed set of worker slots shared by concurrent computations:
// the one CPU budget a server, a sweep or a batch spreads its Monte
// Carlo work over. A computation holds a slot for its run's own workers
// (Acquire … Release); a run handed the pool as Config.Helpers also
// borrows free slots, one chunk at a time, while it has chunks left.
//
// A released slot goes to the longest-waiting Acquire before anything
// else can take it, so a computation blocked on the pool waits for at
// most one borrowed chunk. Slots are scheduling only: they never change
// a result.
type Pool struct {
	mu      sync.Mutex
	free    int
	waiters []chan struct{} // blocked Acquire calls, oldest first
}

// NewPool returns a pool of size free slots. size must be positive.
func NewPool(size int) *Pool {
	if size < 1 {
		panic("mc: NewPool needs at least one slot")
	}
	return &Pool{free: size}
}

// Acquire blocks until the caller holds a slot, or until ctx is done,
// in which case it returns ctx.Err() and holds nothing. A free slot is
// taken without looking at ctx. Release gives the slot back.
func (p *Pool) Acquire(ctx context.Context) error {
	granted := p.join()
	if granted == nil {
		return nil
	}
	select {
	case <-granted:
		return nil
	case <-ctx.Done():
		if !p.leave(granted) {
			// The slot was handed over as ctx ended: pass it on.
			p.Release()
		}
		return ctx.Err()
	}
}

// join takes a free slot and returns nil, or queues the caller and
// returns the channel Release closes when it hands the caller a slot.
func (p *Pool) join() chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free > 0 {
		p.free--
		return nil
	}
	granted := make(chan struct{})
	p.waiters = append(p.waiters, granted)
	return granted
}

// leave withdraws a queued caller, reporting false when Release has
// already handed it a slot.
func (p *Pool) leave(granted chan struct{}) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.waiters {
		if w == granted {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// tryAcquire takes a free slot without waiting and reports whether it
// did. It never overtakes a blocked Acquire: Release hands a slot to a
// waiter before it counts as free.
func (p *Pool) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == 0 {
		return false
	}
	p.free--
	return true
}

// Release gives a slot back: to the longest-waiting Acquire if there is
// one, else to the free set.
func (p *Pool) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.waiters) > 0 {
		close(p.waiters[0])
		p.waiters[0] = nil
		p.waiters = p.waiters[1:]
		return
	}
	p.free++
}
