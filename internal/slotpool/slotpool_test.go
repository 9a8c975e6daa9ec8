package slotpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// item is a pooled value that knows whether somebody holds it.
type item struct {
	held atomic.Bool
}

// TestExclusiveUnderContention hammers one pool from more goroutines than it
// has slots, so values travel through the slots and the sync.Pool behind
// them: whatever Get returns must be held by nobody else until it is Put.
func TestExclusiveUnderContention(t *testing.T) {
	var p Pool[item]
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := p.Get()
				if v == nil {
					v = new(item)
				}
				if v.held.Swap(true) {
					t.Error("Get handed out a value somebody else holds")
					return
				}
				v.held.Store(false)
				p.Put(v)
			}
		}()
	}
	wg.Wait()
}

// TestLoneCallerDoesNotAllocate is why the slots exist: one caller's Get
// after its own Put finds the same value again and allocates nothing, with
// the race detector on too, where a bare sync.Pool drops Put items at random.
func TestLoneCallerDoesNotAllocate(t *testing.T) {
	var p Pool[item]
	if p.Get() != nil {
		t.Fatal("an empty pool produced a value")
	}
	first := new(item)
	p.Put(first)
	if allocs := testing.AllocsPerRun(1000, func() {
		v := p.Get()
		if v != first {
			panic("a lone caller did not get its own value back")
		}
		p.Put(v)
	}); allocs != 0 {
		t.Fatalf("Get/Put allocates %v per round trip, want 0", allocs)
	}
}
