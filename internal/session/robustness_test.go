// Robustness satellites: workload-panic isolation (recover, quarantine,
// grant release, terminal session) and the leased-budget fail-fast path.
package session

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// fakeLease is a BudgetSource whose revocation the test flips.
type fakeLease struct {
	delay    core.Cycles
	err      error
	released int
}

func (f *fakeLease) LeaseDelay() (core.Cycles, error) {
	if f.err != nil {
		return f.delay, f.err
	}
	return f.delay, nil
}
func (f *fakeLease) Release() { f.released++ }

var errRevokedTest = errors.New("test: grant revoked")

func TestSessionPanicIsolation(t *testing.T) {
	sys := demoSystem(t)
	s, err := NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunFunc(func(core.ActionID, core.Level) core.Cycles {
		panic("boom")
	})
	if !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("panicking workload returned %v, want ErrWorkloadPanic", err)
	}
	if !s.Controller().Quarantined() {
		t.Fatal("controller not quarantined after workload panic")
	}
	// The session is terminal: Err reports it, Reset is a no-op, and
	// Next/Run refuse to serve.
	if !errors.Is(s.Err(), ErrWorkloadPanic) {
		t.Fatalf("Err() = %v", s.Err())
	}
	s.Reset()
	if _, err := s.Next(); !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("Next after panic: %v", err)
	}
	if _, err := s.RunFunc(func(core.ActionID, core.Level) core.Cycles { return 1 }); !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("Run after panic: %v", err)
	}
}

func TestQuarantineSurvivesControllerReset(t *testing.T) {
	sys := demoSystem(t)
	ctrl, err := core.NewController(sys)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Quarantined() {
		t.Fatal("fresh controller born quarantined")
	}
	ctrl.Quarantine()
	ctrl.Reset()
	if !ctrl.Quarantined() {
		t.Fatal("Reset cleared the quarantine mark")
	}
}

func TestRuntimeNeverPoolsQuarantined(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Acquire()
	poisoned := s.Controller()
	if _, err := s.RunFunc(func(core.ActionID, core.Level) core.Cycles {
		panic("boom")
	}); !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("panic run: %v", err)
	}
	rt.Release(s)
	if got := rt.Stats().Quarantined; got != 1 {
		t.Fatalf("Stats().Quarantined = %d, want 1", got)
	}
	// The poisoned instance must never come back out of the pool.
	for i := 0; i < 64; i++ {
		s := rt.Acquire()
		if s.Controller() == poisoned {
			t.Fatal("quarantined controller re-entered the pool")
		}
		rt.Release(s)
	}
	if got := rt.Stats().ActiveSessions; got != 0 {
		t.Fatalf("active sessions leaked: %d", got)
	}
}

func TestPanicReleasesLeasedGrant(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	lease := &fakeLease{delay: 10}
	s := rt.AcquireBudgeted(lease)
	if _, err := s.RunFunc(func(core.ActionID, core.Level) core.Cycles {
		panic("boom")
	}); !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("panic run: %v", err)
	}
	if lease.released != 1 {
		t.Fatalf("grant released %d times on panic, want 1", lease.released)
	}
	rt.Release(s)
}

func TestLeasedSourceFailsFastOnRevocation(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	lease := &fakeLease{delay: 10}
	s := rt.AcquireBudgeted(lease)
	work := func(a core.ActionID, q core.Level) core.Cycles { return sys.Cav.At(q, a) }
	if _, err := s.RunFunc(work); err != nil {
		t.Fatalf("healthy budgeted run: %v", err)
	}
	// Revoke out from under the stream: the next Reset fails fast and
	// the session refuses to serve on the reclaimed share.
	lease.err = errRevokedTest
	s.Reset()
	if !errors.Is(s.Err(), errRevokedTest) {
		t.Fatalf("Err() after revocation = %v", s.Err())
	}
	if _, err := s.RunFunc(work); !errors.Is(err, errRevokedTest) {
		t.Fatalf("Run on revoked lease: %v", err)
	}
	if _, err := s.Next(); !errors.Is(err, errRevokedTest) {
		t.Fatalf("Next on revoked lease: %v", err)
	}
	// The controller itself is healthy (nothing panicked): the runtime
	// may pool it again.
	ctrl := s.Controller()
	if ctrl.Quarantined() {
		t.Fatal("revocation must not quarantine the controller")
	}
	rt.Release(s)
}

// TestCustomBudgetSource: a BudgetSource other than a mixer grant has
// its handicap applied at every cycle boundary, and a source that
// returns no error never ends the session.
func TestCustomBudgetSource(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	src := &fixedDelay{d: 10}
	s := rt.AcquireBudgeted(src)
	defer rt.Release(s)
	for cycle, d := range []core.Cycles{10, 0, 25} {
		if cycle > 0 {
			src.set(d)
			s.Reset()
		}
		if got := s.Elapsed(); got != d {
			t.Fatalf("cycle %d: custom BudgetSource handicap not applied: elapsed %v, want %v", cycle, got, d)
		}
		if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
			return sys.Cav.At(q, a)
		}); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if s.Err() != nil {
			t.Fatalf("cycle %d: custom source produced terminal error %v", cycle, s.Err())
		}
	}
}
