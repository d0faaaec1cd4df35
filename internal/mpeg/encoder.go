package mpeg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/session"
	"repro/internal/trace"
	"repro/internal/video"
)

// Encoder encodes frames either under fine-grain QoS control (the
// paper's contribution) or at a constant quality level (the industrial
// baseline). The encoder is deterministic given its seed: controlled and
// constant runs over the same source observe identical content noise.
type Encoder struct {
	FS   *FrameSystem
	Sess *session.Session // nil for constant quality
	Exec *platform.Executor

	constQ core.Level
	seed   uint64

	// learn, when non-nil, tracks per-(body action, level) average
	// execution times online and refreshes the controller's
	// average-time tables between frames. It is fed by an EWMAObserver
	// on the session; the observed cost is the executor's elapsed-time
	// delta, which already includes the per-decision instrumentation
	// the system's families carry.
	learn *trace.EWMA
}

// FrameReport is the outcome of encoding one frame.
type FrameReport struct {
	Elapsed   core.Cycles
	MeanLevel float64
	Misses    int
	Fallbacks int
	CtrlFrac  float64 // controller cycles / total cycles
}

// ControlledOption configures NewControlled.
type ControlledOption func(*controlledCfg)

type controlledCfg struct {
	ctrlOpts   []core.Option
	perMBDl    bool
	decisionOv core.Cycles
	learnAlpha float64
}

// WithControllerOptions forwards options to the underlying controller
// (e.g. core.WithMode, core.WithMaxStep).
func WithControllerOptions(opts ...core.Option) ControlledOption {
	return func(c *controlledCfg) { c.ctrlOpts = append(c.ctrlOpts, opts...) }
}

// WithPerMacroblockDeadlines enables the proportional per-macroblock
// deadline ablation instead of a single end-of-frame deadline.
func WithPerMacroblockDeadlines() ControlledOption {
	return func(c *controlledCfg) { c.perMBDl = true }
}

// WithDecisionOverhead overrides the per-decision instrumentation cost
// (default platform.DefaultDecisionOverhead).
func WithDecisionOverhead(ov core.Cycles) ControlledOption {
	return func(c *controlledCfg) { c.decisionOv = ov }
}

// WithLearning enables online learning of average execution times (the
// paper's future-work item): observed per-action costs update an EWMA
// estimate with the given smoothing factor, and the controller's
// average-time tables are refreshed between frames. Worst-case tables
// are never touched, so the safety guarantee is unaffected — learning
// only sharpens the optimality constraint under drifting content load.
func WithLearning(alpha float64) ControlledOption {
	return func(c *controlledCfg) { c.learnAlpha = alpha }
}

// NewControlled builds a fine-grain controlled encoder for frames of n
// macroblocks with the given initial budget.
func NewControlled(n int, budget core.Cycles, seed uint64, opts ...ControlledOption) (*Encoder, error) {
	cfg := controlledCfg{decisionOv: platform.DefaultDecisionOverhead}
	for _, o := range opts {
		o(&cfg)
	}
	fs, err := BuildSystem(SystemConfig{
		Macroblocks:            n,
		Budget:                 budget,
		DecisionOverhead:       cfg.decisionOv,
		PerMacroblockDeadlines: cfg.perMBDl,
	})
	if err != nil {
		return nil, err
	}
	if min := fs.MinFeasibleBudget(); budget < min {
		return nil, fmt.Errorf("mpeg: budget %v below minimal feasible %v for N=%d", budget, min, n)
	}
	ctrlOpts := cfg.ctrlOpts
	if fs.Iter != nil {
		ctrlOpts = append(ctrlOpts, core.WithEvaluator(fs.Iter, fs.Iter.Order()))
	} else {
		// Per-macroblock deadlines re-target through Controller.Retarget
		// every time the frame budget changes; a small program cache
		// makes recurring budget values (a quantised rate controller's
		// output) rebuild their tables only once.
		ctrlOpts = append(ctrlOpts, core.WithProgramCache(core.NewProgramCache(0)))
	}
	ctrl, err := core.NewController(fs.Sys, ctrlOpts...)
	if err != nil {
		return nil, err
	}
	exec := platform.NewExecutor()
	exec.DecisionOverhead = cfg.decisionOv
	enc := &Encoder{FS: fs, Sess: session.Wrap(ctrl), Exec: exec, seed: seed}
	if cfg.learnAlpha > 0 {
		if fs.Iter == nil {
			return nil, fmt.Errorf("mpeg: learning requires the iterative-table configuration")
		}
		enc.learn, err = trace.NewEWMA(Levels(), NumActions, cfg.learnAlpha)
		if err != nil {
			return nil, err
		}
		// Completed actions feed the learner directly; the observed
		// cost is the elapsed-time delta, which includes the
		// per-decision instrumentation the system's families carry.
		enc.Sess.Observe(session.EWMAObserver(enc.learn, func(a core.ActionID) core.ActionID {
			base, _ := SplitID(a)
			return core.ActionID(base)
		}))
	}
	return enc, nil
}

// Learning reports whether online average-time learning is enabled.
func (e *Encoder) Learning() bool { return e.learn != nil }

// NewConstant builds the constant-quality baseline encoder: no
// controller, no instrumentation overhead, fixed level q. The budget is
// only used to count deadline misses against the nominal period.
func NewConstant(n int, q core.Level, budget core.Cycles, seed uint64) (*Encoder, error) {
	if !Levels().Contains(q) {
		return nil, fmt.Errorf("mpeg: quality level %d out of range", q)
	}
	fs, err := BuildSystem(SystemConfig{Macroblocks: n, Budget: budget})
	if err != nil {
		return nil, err
	}
	exec := platform.NewExecutor()
	exec.DecisionOverhead = 0
	return &Encoder{FS: fs, Exec: exec, constQ: q, seed: seed}, nil
}

// Controlled reports whether the encoder runs under QoS control.
func (e *Encoder) Controlled() bool { return e.Sess != nil }

// ConstQ returns the constant level (meaningful when !Controlled).
func (e *Encoder) ConstQ() core.Level { return e.constQ }

// frameRNG derives the deterministic content-noise stream for a frame.
func (e *Encoder) frameRNG(index int) *platform.RNG {
	return platform.NewRNG(e.seed*0x9E3779B1 + uint64(index)*0x85EBCA77 + 0x165667B1)
}

// EncodeFrameAt encodes one frame at a fixed quality level without
// control — used by the constant baseline and by the coarse-grain
// per-frame policies (skip-over, PID, elastic), which pick one level per
// frame.
func (e *Encoder) EncodeFrameAt(f *video.Frame, budget core.Cycles, q core.Level) (FrameReport, error) {
	if e.Sess != nil {
		return FrameReport{}, fmt.Errorf("mpeg: EncodeFrameAt on a controlled encoder")
	}
	w := NewWorkload(f, e.frameRNG(f.Index))
	if err := e.FS.SetBudget(budget, nil); err != nil {
		return FrameReport{}, err
	}
	rep := e.Exec.RunConstant(e.FS.Sys, q, w)
	return FrameReport{
		Elapsed:   rep.Elapsed,
		MeanLevel: rep.MeanLevel(),
		Misses:    rep.Misses,
	}, nil
}

// EncodeFrame encodes one frame within the given time budget and returns
// the report. For the constant-quality encoder the budget only scales
// the miss accounting; execution time is whatever the content costs.
func (e *Encoder) EncodeFrame(f *video.Frame, budget core.Cycles) (FrameReport, error) {
	if e.Sess == nil {
		return e.EncodeFrameAt(f, budget, e.constQ)
	}
	w := NewWorkload(f, e.frameRNG(f.Index))
	if min := e.FS.MinFeasibleBudget(); budget < min {
		return FrameReport{}, fmt.Errorf("mpeg: frame %d budget %v below minimal feasible %v", f.Index, budget, min)
	}
	if err := e.FS.SetBudget(budget, e.Sess.Controller()); err != nil {
		return FrameReport{}, err
	}
	if e.learn != nil {
		// Refresh the optimality tables from what previous frames
		// taught us about average costs; safety tables are untouched.
		// The EWMA observer on the session keeps feeding the learner
		// as the frame executes.
		e.learn.Apply(e.FS.Body.Cav, e.FS.Body.Cwc)
		if err := e.FS.Iter.UpdateAverages(e.FS.Body, e.FS.BodyOrder); err != nil {
			return FrameReport{}, err
		}
	}
	e.Sess.Reset()
	rep, err := e.Exec.RunControlled(e.Sess, w)
	if err != nil {
		return FrameReport{}, err
	}
	return FrameReport{
		Elapsed:   rep.Elapsed,
		MeanLevel: rep.MeanLevel(),
		Misses:    rep.Misses,
		Fallbacks: rep.Fallbacks,
		CtrlFrac:  rep.OverheadFraction(),
	}, nil
}
