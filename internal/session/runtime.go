package session

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/platform"
)

// Runtime is a goroutine-safe multi-stream server over one controlled
// system: the expensive precomputed state (validation, EDF schedule,
// constraint tables — a core.Program) is built once and shared, while
// each concurrent stream gets its own cheap Session whose controller
// instance is recycled through a sync.Pool.
//
// Acquire/Release (or the one-shot RunCycle) are safe to call from any
// number of goroutines; each Session itself stays single-stream.
type Runtime struct {
	prog *core.Program
	pool sync.Pool

	active      atomic.Int64
	cycles      atomic.Int64
	actions     atomic.Int64
	fallbacks   atomic.Int64
	misses      atomic.Int64
	quarantined atomic.Int64
}

// NewRuntime validates the system, precomputes its controller program
// with the given options and returns the serving runtime. The program
// carries a shared retarget cache (core.ProgramCache): sessions whose
// controllers re-target to a recurring set of deadline families (an
// advanced, explicitly un-pooled flow) rebuild each family's tables at
// most once runtime-wide. Pass core.WithProgramCache in opts to size or
// share it explicitly.
func NewRuntime(sys *core.System, opts ...core.Option) (*Runtime, error) {
	opts = append([]core.Option{core.WithProgramCache(core.NewProgramCache(0))}, opts...)
	prog, err := core.NewProgram(sys, opts...)
	if err != nil {
		return nil, err
	}
	return NewRuntimeFromProgram(prog), nil
}

// NewRuntimeFromProgram serves an already-built program (e.g. one with
// a custom evaluator).
func NewRuntimeFromProgram(prog *core.Program) *Runtime {
	return &Runtime{prog: prog}
}

// Program returns the shared precomputed state.
func (r *Runtime) Program() *core.Program { return r.prog }

// System returns the served system.
func (r *Runtime) System() *core.System { return r.prog.System() }

// BudgetSource yields the elapsed-time handicap a budgeted stream must
// charge its controller at every cycle start — the CPU cycles the other
// streams sharing the budget consume per period — or an error once the
// stream's share is gone (a mixer.Grant revoked for liveness). A
// budgeted session reads it at every cycle boundary and fails fast on
// an error instead of serving on a reclaimed share. mixer.Grant
// implements it; so does any fixed or adaptive share scheme, which
// simply never returns an error.
type BudgetSource interface {
	LeaseDelay() (core.Cycles, error)
}

// Acquire hands out a fresh Session for one stream, reusing a pooled
// controller instance when available. The session is at a cycle
// boundary. Observers are per-acquire: they see only this stream.
// Controller configuration (mode, smoothness, evaluator) is fixed for
// the whole runtime at NewRuntime.
func (r *Runtime) Acquire(obs ...Observer) *Session {
	var ctrl *core.Controller
	if v := r.pool.Get(); v != nil {
		ctrl = v.(*core.Controller)
		ctrl.Reset()
	} else {
		// Fresh instances come out of NewController already at a
		// cycle boundary; no second reset needed.
		ctrl = r.prog.NewController()
	}
	r.active.Add(1)
	s := &Session{ctrl: ctrl, obs: obs}
	s.owner.Store(r)
	return s
}

// AcquireBudgeted hands out a Session whose cycles run under a shared
// budget share: at every cycle boundary (including this acquire) the
// session charges src.LeaseDelay() to its controller, so admissibility
// sees only the stream's share of the period. Typical use is an
// admitted mixer.Grant:
//
//	g, err := budget.Admit(spec)
//	s := rt.AcquireBudgeted(g)
//	defer func() { rt.Release(s); g.Release() }()
func (r *Runtime) AcquireBudgeted(src BudgetSource, obs ...Observer) *Session {
	s := r.Acquire(obs...)
	s.budget = src
	s.applyBudget()
	return s
}

// Release returns the session's controller instance to the pool. The
// session must not be used afterwards. Release is safe against misuse
// that would otherwise poison the shared pool: releasing a session that
// came from a different runtime (or none) is a no-op that leaves the
// session usable, and double releases — even concurrent ones — detach
// the controller exactly once.
func (r *Runtime) Release(s *Session) {
	if s == nil || !s.owner.CompareAndSwap(r, nil) {
		return
	}
	ctrl := s.ctrl
	s.ctrl = nil
	s.budget = nil
	r.active.Add(-1)
	// A Retarget would have forked the controller off the shared
	// program, a ShiftDeadlines leaves a private time base behind, and
	// a quarantined controller's mid-cycle state is unknowable after a
	// workload panic; keep only instances indistinguishable from fresh
	// ones.
	if ctrl != nil && !ctrl.Quarantined() && ctrl.Program() == r.prog && ctrl.DeadlineShift() == 0 {
		r.pool.Put(ctrl)
	}
}

// RunCycle serves one full cycle of one stream: acquire, run the
// workload, release. This is the common fast path for stateless
// callers.
func (r *Runtime) RunCycle(w platform.Workload, obs ...Observer) (core.CycleResult, error) {
	s := r.Acquire(obs...)
	defer r.Release(s)
	return s.Run(w)
}

// RunCycleFunc is RunCycle with a bare function workload.
func (r *Runtime) RunCycleFunc(f func(core.ActionID, core.Level) core.Cycles, obs ...Observer) (core.CycleResult, error) {
	return r.RunCycle(platform.WorkloadFunc(f), obs...)
}

// account folds a finished cycle into the served totals.
func (r *Runtime) account(res *core.CycleResult) {
	r.cycles.Add(1)
	r.actions.Add(int64(res.Steps))
	r.fallbacks.Add(int64(res.Fallbacks))
	r.misses.Add(int64(res.Misses))
}

// RuntimeStats is a snapshot of the served totals.
type RuntimeStats struct {
	// ActiveSessions is the number of sessions currently acquired.
	ActiveSessions int64
	// Cycles, Actions count completed Session.Run cycles and their
	// actions across all streams.
	Cycles, Actions int64
	// Fallbacks, Misses aggregate the corresponding per-cycle counts.
	Fallbacks, Misses int64
	// Quarantined counts controllers poisoned by workload panics
	// (Session.Run recovered, quarantined the instance, and refused to
	// pool it again).
	Quarantined int64
}

// Stats returns a snapshot of the served totals. Cycles driven manually
// (Next/Completed without Run) are not counted.
func (r *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		ActiveSessions: r.active.Load(),
		Cycles:         r.cycles.Load(),
		Actions:        r.actions.Load(),
		Fallbacks:      r.fallbacks.Load(),
		Misses:         r.misses.Load(),
		Quarantined:    r.quarantined.Load(),
	}
}
