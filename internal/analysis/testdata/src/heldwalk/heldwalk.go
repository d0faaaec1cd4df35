// Package heldwalk is a qoslint fixture for how the lock and blocking
// facts travel along call edges. A blocking operation that a helper
// only spawns under a go statement, or only performs in a comm clause
// of a select with a default case, does not make the helper block its
// caller: calls of such helpers under a lock and inside ctx-taking
// loops are clean. A call in a comm clause is not a blocking edge
// either. Acquisitions travel along every edge, comm clauses included,
// so a helper that locks only from a comm clause still acquires. The
// contrast cases (a helper that blocks in its own body) are flagged.
package heldwalk

import (
	"context"
	"sync"
	"time"
)

var mu sync.Mutex

// spawnSend blocks only inside the goroutine it spawns; the spawner
// itself never parks.
func spawnSend(ch chan int) {
	go func() {
		ch <- 1
	}()
}

// pollRecv's only receive is a comm clause of a select with a default
// case: it never parks.
func pollRecv(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// pause blocks in its own body.
func pause() {
	time.Sleep(time.Millisecond)
}

// offerPaused calls the blocking pause only from a comm clause of a
// default-carrying select.
func offerPaused(ch chan int) bool {
	select {
	case ch <- waitThenOne():
		return true
	default:
		return false
	}
}

// waitThenOne blocks, then yields 1.
func waitThenOne() int {
	pause()
	return 1
}

// sendDirect blocks in its own body.
func sendDirect(ch chan int) {
	ch <- 1
}

// SpawnUnderLock calls spawnSend under mu — clean.
func SpawnUnderLock(ch chan int) {
	mu.Lock()
	spawnSend(ch)
	mu.Unlock()
}

// PollUnderLock calls pollRecv under mu — clean.
func PollUnderLock(ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return pollRecv(ch)
}

// OfferUnderLock calls offerPaused under mu — clean.
func OfferUnderLock(ch chan int) bool {
	mu.Lock()
	defer mu.Unlock()
	return offerPaused(ch)
}

// SendUnderLock calls sendDirect under mu: the contrast case, flagged
// at the call.
func SendUnderLock(ch chan int) {
	mu.Lock()
	sendDirect(ch)
	mu.Unlock()
}

// SpawnLoop calls spawnSend each iteration without consulting ctx —
// clean, the loop never waits.
func SpawnLoop(ctx context.Context, ch chan int) {
	for i := 0; i < 3; i++ {
		spawnSend(ch)
	}
}

// PollLoop polls each iteration without consulting ctx — clean.
func PollLoop(ctx context.Context, ch chan int) int {
	total := 0
	for i := 0; i < 3; i++ {
		total += pollRecv(ch)
	}
	return total
}

// OfferLoop offers each iteration without consulting ctx — clean.
func OfferLoop(ctx context.Context, ch chan int) {
	for i := 0; i < 3; i++ {
		offerPaused(ch)
	}
}

// SendLoop sends through sendDirect without consulting ctx: the
// contrast case, flagged.
func SendLoop(ctx context.Context, ch chan int) {
	for i := 0; i < 3; i++ {
		sendDirect(ch)
	}
}

// Store is a mutex-guarded map for the acquisition cases.
type Store struct {
	mu   sync.Mutex
	data map[string]int
}

// size locks s.mu.
func (s *Store) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// offerSize locks s.mu only through the call in its comm clause; the
// acquisition still counts.
func (s *Store) offerSize(ch chan int) {
	select {
	case ch <- s.size():
	default:
	}
}

// Report calls offerSize while holding s.mu: flagged, the comm clause
// call re-locks s.mu.
func (s *Store) Report(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offerSize(ch)
}

// The cases below sit in statements the held-lock walk must enter: a
// labeled statement, a var declaration's values, an inc/dec operand
// and a send's value.

// Labeled sends, sleeps and calls size inside a labeled loop while
// holding s.mu: all three flagged.
func (s *Store) Labeled(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
outer:
	for i := 0; i < 3; i++ {
		ch <- i
		time.Sleep(time.Millisecond)
		if s.size() > i {
			break outer
		}
	}
}

// Declared calls size in a var initializer while holding s.mu:
// flagged.
func (s *Store) Declared() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n = s.size()
	return n
}

// Counted calls size in an increment's operand while holding s.mu:
// flagged.
func (s *Store) Counted(hits []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hits[s.size()]++
}

// Published sends size's result while holding s.mu: the call is
// flagged, and so is the send.
func (s *Store) Published(ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- s.size()
}
