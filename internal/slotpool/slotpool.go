// Package slotpool recycles per-call working sets: the one free list behind
// the sender's scratch, the receiver's reassembly entries, the schemes'
// split scratch, the DRBG states and the batched socket headers.
package slotpool

import (
	"sync"
	"sync/atomic"
)

// Pool hands each concurrent caller its own *T. In front of a sync.Pool sit
// a few slots, claimed and returned with one compare-and-swap (a slot that
// cannot serve costs only a load): the deterministic path a lone caller, or
// a stream with a few values in flight, always hits. The sync.Pool alone
// would not do: it sheds what sat idle through a collection, and under the
// race detector deliberately drops Put items, which would make the
// allocation pins flaky.
//
// The zero Pool is ready to use. A value at rest belongs to nobody: holders
// clear whatever must not outlive the call before Put.
type Pool[T any] struct {
	slots [8]atomic.Pointer[T]
	pool  sync.Pool
}

// Get claims a pooled value, or returns nil when there is none and the
// caller builds its own (building may fail, so the pool does not do it).
func (p *Pool[T]) Get() *T {
	for i := range p.slots {
		if v := p.slots[i].Load(); v != nil && p.slots[i].CompareAndSwap(v, nil) {
			return v
		}
	}
	v, _ := p.pool.Get().(*T)
	return v
}

// Put hands v, which the caller no longer uses, to the next Get.
func (p *Pool[T]) Put(v *T) {
	for i := range p.slots {
		if p.slots[i].Load() == nil && p.slots[i].CompareAndSwap(nil, v) {
			return
		}
	}
	p.pool.Put(v)
}
