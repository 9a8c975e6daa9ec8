// Package mutexguard exercises the mutexguard analyzer: unlocked and
// access-before-lock violations, requirements passed to callers and checked
// there, the scoped-unlock and closure rules of the held-set walk, atomic
// loads, and annotation validation.
package mutexguard

import (
	"sort"
	"sync"
	"sync/atomic"
)

// counter has fields guarded by its mutex.
type counter struct {
	mu     sync.Mutex
	n      int   // guarded by mu
	closed bool  // guarded by mu
	list   []int // guarded by mu
	// snap is guarded by mu for writers; readers load it without the lock.
	snap atomic.Pointer[int]
}

// bad reads n without ever locking, and nothing calls it.
func (c *counter) bad() int {
	return c.n // want `field n is guarded by mu but bad accesses it without locking`
}

// early touches n before taking the lock.
func (c *counter) early() int {
	v := c.n // want `field n is guarded by mu but early accesses it without locking`
	c.mu.Lock()
	defer c.mu.Unlock()
	return v + c.n
}

// good locks before every access, and calls helper with the lock held.
func (c *counter) good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.helper()
}

// helper runs with the lock already held by its callers, which is checked
// at each call site rather than written down.
func (c *counter) helper() int {
	return c.n
}

// inc is a helper whose callers must hold mu.
func (c *counter) inc() {
	c.n++
}

// Add holds mu across its call to inc.
func (c *counter) Add() {
	c.mu.Lock()
	c.inc()
	c.mu.Unlock()
}

// Reset calls inc without the lock; Reset is exported, so the requirement
// stops here and is reported at the call with the chain that needs it.
func (c *counter) Reset() {
	c.inc() // want `field n is guarded by mu but Reset calls inc without locking \(Reset → inc → n; Reset is exported\)`
}

// relock releases mu before touching n.
func (c *counter) relock() int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want `field n is guarded by mu but relock accesses it without locking \(relock acquires mu itself`
}

// shut unlocks early on the already-closed path only: that unlock is scoped
// to the block that returns, so mu is still held below it.
func (c *counter) shut() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	c.inc()
	c.mu.Unlock()
	return true
}

// sorted sorts under the lock: a closure that is not a goroutine starts
// with the locks held where it is defined.
func (c *counter) sorted() {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.list, func(i, j int) bool { return c.less(i, j) })
}

// less compares two list elements; callers hold mu.
func (c *counter) less(i, j int) bool {
	return c.list[i] < c.list[j]
}

// spawn holds the lock, but the goroutine it starts does not.
func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `field n is guarded by mu but a goroutine in spawn accesses it without locking`
	}()
}

// load reads the atomic field without the lock; publish stores it under
// the lock, and Clear stores it without, which is still an access.
func (c *counter) load() *int { return c.snap.Load() }

func (c *counter) publish(v *int) {
	c.mu.Lock()
	c.snap.Store(v)
	c.mu.Unlock()
}

func (c *counter) Clear() {
	c.snap.Store(nil) // want `field snap is guarded by mu but Clear accesses it without locking \(Clear is exported\)`
}

// typo carries an annotation naming a field the struct does not have.
type typo struct {
	n int // guarded by mux; want `annotated 'guarded by mux' but struct typo has no field of that name`
}

// use keeps the fixture types and methods referenced.
func use() int {
	var c counter
	var t typo
	c.Add()
	c.Reset()
	c.sorted()
	c.spawn()
	c.publish(nil)
	_ = c.load()
	_ = c.shut()
	return c.early() + c.good() + c.relock() + t.n
}
