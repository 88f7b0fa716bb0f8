// Package locks is the annotated corpus of the retired locks analyzer,
// kept as the regression test for release's lock obligations and its
// blocking-under-a-held-mutex check.
package locks

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	n  int
}

// missingUnlock acquires and never releases.
func missingUnlock(c *counter) {
	c.mu.Lock() // want `c.mu is locked but not released by c.mu.Unlock\(\) on every path`
	c.n++
}

// returnWhileHeld leaks the lock on the early-return path.
func returnWhileHeld(c *counter, skip bool) {
	c.mu.Lock() // want `c.mu is locked but not released by c.mu.Unlock\(\) on every path`
	if skip {
		return
	}
	c.n++
	c.mu.Unlock()
}

// sleepWhileHeld blocks the whole critical section on a timer.
func sleepWhileHeld(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while c.mu is held`
}

// sendWhileHeld performs a channel send inside the critical section; a
// slow receiver deadlocks every other user of the mutex.
func sendWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	ch <- c.n // want `channel send while c.mu is held`
	c.mu.Unlock()
}

// recvWhileHeld blocks the critical section on a channel receive.
func recvWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	c.n = <-ch // want `channel receive while c.mu is held`
	c.mu.Unlock()
}

// joinWhileHeld waits for a WaitGroup inside the critical section: a worker
// that needs the mutex to finish deadlocks it.
func joinWhileHeld(c *counter, wg *sync.WaitGroup) {
	c.mu.Lock()
	wg.Wait() // want `wg.Wait while c.mu is held`
	c.mu.Unlock()
}

// waitForWork is the condition-variable loop: Cond.Wait releases c.mu while
// it waits and takes it back before returning, so nothing blocks under it.
func waitForWork(c *counter, cond *sync.Cond) int {
	c.mu.Lock()
	for c.n == 0 {
		cond.Wait()
	}
	v := c.n
	c.mu.Unlock()
	return v
}

// inc is the straight-line lock/unlock pattern.
func inc(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// get releases through defer, so every return path is covered.
func get(c *counter, skip bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if skip {
		return 0
	}
	return c.n
}

// incNotify sends only after the critical section ends.
func incNotify(c *counter, ch chan int) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	ch <- c.n
}

// earlyOut releases before each return, in branch order.
func earlyOut(c *counter, stop bool) int {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return 0
	}
	v := c.n
	c.mu.Unlock()
	return v
}

// unlockOneBranch releases only when fast: the send after the join runs
// with c.mu still held on the other path, and that path never releases it.
// The parent locks analyzer called this clean: its critical section ended
// at the first Unlock in source order.
func unlockOneBranch(c *counter, ch chan int, fast bool) {
	c.mu.Lock() // want `c.mu is locked but not released by c.mu.Unlock\(\) on every path`
	if fast {
		c.mu.Unlock()
	}
	ch <- c.n // want `channel send while c.mu is held`
}

type table struct {
	mu sync.RWMutex
	m  map[string]int
}

// lookup uses the RWMutex read path with a deferred release.
func lookup(t *table, k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

// spawnUnderLock starts a goroutine whose channel send happens on another
// goroutine — not while this function holds the mutex. The analyzer must
// not descend into the literal.
func spawnUnderLock(c *counter, ch chan int) {
	c.mu.Lock()
	go func() {
		ch <- 1
	}()
	c.mu.Unlock()
}
