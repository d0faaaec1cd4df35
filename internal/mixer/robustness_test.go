// Robustness satellites: the lease/reaper lifecycle, the documented
// degradation order, AdmitWait queuing, and the release-vs-reclaim race
// (run under -race in CI).
package mixer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func softSpec() StreamSpec {
	s := testSpec()
	s.Soft = true
	return s
}

func TestLeaseRenewAndRevoke(t *testing.T) {
	b := mustBudget(t, 100, Fair)
	b.SetLease(2)
	g, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Cycle-boundary reads renew the lease: the grant survives any
	// number of epochs while the stream keeps serving.
	for i := 0; i < 10; i++ {
		if d, err := g.LeaseDelay(); d != 0 || err != nil { // sole stream: full nominal share
			t.Fatalf("epoch %d: delay %v (err %v), want 0", i, d, err)
		}
		b.Rebalance()
	}
	if g.Revoked() {
		t.Fatal("renewing grant was revoked")
	}
	// Stop renewing: the grant survives exactly K missed epochs and is
	// reaped at the next boundary.
	_, _ = g.LeaseDelay() // final renewal
	b.Rebalance()
	b.Rebalance()
	if g.Revoked() {
		t.Fatal("revoked within the lease window")
	}
	b.Rebalance()
	if !g.Revoked() {
		t.Fatal("lease expired but grant not revoked")
	}
	// The revoked grant fails fast and holds no share: the full
	// Nominal handicap with ErrGrantRevoked.
	d, err := g.LeaseDelay()
	if !errors.Is(err, ErrGrantRevoked) {
		t.Fatalf("LeaseDelay after revoke: %v", err)
	}
	if g.Share() != 0 || d != 100 {
		t.Fatalf("revoked grant kept share %v (delay %v)", g.Share(), d)
	}
	// The reservation was reclaimed and the revocation counted.
	st := b.Stats()
	if st.Streams != 0 || st.Committed != 0 || st.Granted != 0 || st.Revoked != 1 {
		t.Fatalf("stats after reaping: %+v", st)
	}
	// Release after revoke is a no-op, not double accounting.
	g.Release()
	if st := b.Stats(); st.Committed != 0 {
		t.Fatalf("release-after-revoke corrupted accounting: %+v", st)
	}
	// The reclaimed capacity readmits.
	if _, err := b.Admit(testSpec()); err != nil {
		t.Fatalf("readmission after reclaim: %v", err)
	}
}

func TestLeaseDisarmedNeverRevokes(t *testing.T) {
	b := mustBudget(t, 100, Fair)
	g, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.Rebalance() // leasing never armed: no epochs, no reaper
	}
	if g.Revoked() {
		t.Fatal("reaper ran without SetLease")
	}
	if _, err := g.LeaseDelay(); err != nil {
		t.Fatalf("LeaseDelay on live grant: %v", err)
	}
}

// TestReleaseRevokeRace hammers the release-vs-reclaim race under
// -race: grants released concurrently with the reaper revoking them
// must retire exactly once — never double accounting, never a negative
// committed sum.
func TestReleaseRevokeRace(t *testing.T) {
	const streams, rounds = 24, 40
	spec := testSpec()
	b := mustBudget(t, spec.MinNeed.MulSat(streams), Fair)
	b.SetLease(1)
	for round := 0; round < rounds; round++ {
		grants := make([]*Grant, streams)
		var err error
		for i := range grants {
			if grants[i], err = b.Admit(spec); err != nil {
				t.Fatalf("round %d admit %d: %v", round, i, err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Never renewed: every Rebalance past the window reaps
			// whatever the racing releases have not retired yet.
			for i := 0; i < 4; i++ {
				b.Rebalance()
			}
		}()
		for _, g := range grants {
			wg.Add(1)
			go func(g *Grant) {
				defer wg.Done()
				g.Release()
				g.Release() // double release must stay a no-op
			}(g)
		}
		wg.Wait()
		st := b.Stats()
		if st.Streams != 0 || st.Committed != 0 || st.Granted != 0 {
			t.Fatalf("round %d: reservations corrupted: %+v", round, st)
		}
		if st.Committed < 0 || st.Granted > st.Total {
			t.Fatalf("round %d: conservation violated: %+v", round, st)
		}
	}
}

// TestSetTotalDegradationOrder pins the documented order: a shrink
// sheds soft floors (latest-admitted first) and only errors once hard
// reserves no longer fit.
func TestSetTotalDegradationOrder(t *testing.T) {
	b := mustBudget(t, 100, Fair)
	h1, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := b.Admit(softSpec())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Admit(softSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Committed 80 (hard 40). Shrinking to 70 keeps hard floors whole
	// and demotes the latest-admitted soft stream first.
	if err := b.SetTotal(70); err != nil {
		t.Fatalf("graceful shrink rejected: %v", err)
	}
	if h1.Share() != 20 || h2.Share() != 20 {
		t.Fatalf("hard floors disturbed: %v/%v", h1.Share(), h2.Share())
	}
	if s1.Share() != 20 || s2.Share() != 10 {
		t.Fatalf("soft shares %v/%v, want 20/10 (latest demoted first)", s1.Share(), s2.Share())
	}
	st := b.Stats()
	if st.SoftDemoted != 1 || !st.Degraded || st.HardCommitted != 40 {
		t.Fatalf("stats mid-shed: %+v", st)
	}
	// Deeper shrink: both soft floors shed, hard still whole.
	if err := b.SetTotal(45); err != nil {
		t.Fatalf("deep shrink rejected: %v", err)
	}
	if h1.Share() != 20 || h2.Share() != 20 || s1.Share() != 5 || s2.Share() != 0 {
		t.Fatalf("deep-shed shares %v/%v/%v/%v", h1.Share(), h2.Share(), s1.Share(), s2.Share())
	}
	if st := b.Stats(); st.SoftDemoted != 2 {
		t.Fatalf("stats deep-shed: %+v", st)
	}
	// Below hard reserves: refused, state unchanged.
	if err := b.SetTotal(39); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("shrink below hard reserves: err = %v", err)
	}
	if b.Total() != 45 {
		t.Fatalf("failed shrink changed total to %v", b.Total())
	}
	// Growth restores every floor.
	if err := b.SetTotal(100); err != nil {
		t.Fatal(err)
	}
	if s1.Share() < 20 || s2.Share() < 20 {
		t.Fatalf("growth did not restore soft floors: %v/%v", s1.Share(), s2.Share())
	}
	if st := b.Stats(); st.SoftDemoted != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

func TestAdmitWaitQueuesUntilCapacity(t *testing.T) {
	b := mustBudget(t, 40, Fair) // room for exactly 2
	g1, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Admit(testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Admit(testSpec()); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third of two: %v", err)
	}
	type result struct {
		g   *Grant
		err error
	}
	done := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g, err := b.AdmitWait(ctx, testSpec())
		done <- result{g, err}
	}()
	// Free capacity from another goroutine; the waiter must admit.
	time.AfterFunc(5*time.Millisecond, g1.Release)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("queued admission failed: %v", r.err)
		}
		r.g.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("AdmitWait did not wake on release")
	}
}

func TestAdmitWaitWakesOnRevocation(t *testing.T) {
	b := mustBudget(t, 20, Fair) // room for exactly 1
	b.SetLease(1)
	if _, err := b.Admit(testSpec()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g, err := b.AdmitWait(ctx, testSpec())
		if err == nil {
			g.Release()
		}
		done <- err
	}()
	// The holder never renews: a few Rebalances reap it and the waiter
	// inherits the capacity.
	go func() {
		for i := 0; i < 4; i++ {
			time.Sleep(2 * time.Millisecond)
			b.Rebalance()
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("AdmitWait after revocation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AdmitWait did not wake on revocation")
	}
}

func TestAdmitWaitContext(t *testing.T) {
	b := mustBudget(t, 20, Fair)
	g0, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.AdmitWait(ctx, testSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled AdmitWait: %v", err)
	}
	tctx, tcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer tcancel()
	if _, err := b.AdmitWait(tctx, testSpec()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out AdmitWait: %v", err)
	}
	// Invalid specs fail immediately, not after the deadline.
	if _, err := b.AdmitWait(context.Background(), StreamSpec{}); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("invalid spec: %v", err)
	}
	// With capacity available AdmitWait is just Admit: the first try
	// wins.
	g0.Release()
	g, err := b.AdmitWait(context.Background(), softSpec())
	if err != nil {
		t.Fatalf("AdmitWait with free capacity: %v", err)
	}
	// A canceled ctx refuses even with capacity free: a caller that has
	// given up must never be handed a grant it would only leak.
	if _, err := b.AdmitWait(ctx, softSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled AdmitWait with free capacity: %v", err)
	}
	g.Release()
}

// TestAdmitWaitCancellationDuringStorm reproduces the lost-wakeup path:
// waiters queued on a full budget whose ctx is canceled while capacity
// events keep firing. The closed capacity channel a waiter holds stays
// ready forever, so before the top-of-loop cancellation check a woken
// waiter could keep re-trying (and re-sleeping its backoff) instead of
// honoring the cancellation — or admit a grant nobody would release.
// Every waiter must return ctx's error promptly and no capacity may
// leak.
func TestAdmitWaitCancellationDuringStorm(t *testing.T) {
	b := mustBudget(t, 20, Fair) // room for exactly 1
	g0, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	const waiters = 8
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			g, err := b.AdmitWait(ctx, testSpec())
			if g != nil {
				err = fmt.Errorf("admitted a grant under a canceled ctx")
			}
			done <- err
		}()
	}
	// Let the waiters reach their select, then cancel and storm: each
	// admit/release pair closes a capacity channel some waiter holds.
	time.Sleep(2 * time.Millisecond)
	cancel()
	storm := make(chan struct{})
	go func() {
		defer close(storm)
		for i := 0; i < 200; i++ {
			g0.Release()
			g, err := b.Admit(testSpec())
			if err != nil {
				t.Error(err)
				return
			}
			g0 = g
		}
	}()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("waiter %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still honoring backoff after cancellation", i)
		}
	}
	<-storm
	g0.Release()
	if st := b.Stats(); st.Streams != 0 || st.Committed != 0 {
		t.Fatalf("capacity leaked to canceled waiters: %+v", st)
	}
}
