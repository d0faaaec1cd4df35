// Package qos is the public API of the fine-grain QoS control library, a
// reproduction of Combaz, Fernandez, Lepley and Sifakis, "Fine Grain QoS
// Control for Multimedia Application Software" (DATE 2005).
//
// The library models a cyclic data-flow application as a precedence
// graph of atomic actions with quality-level parameters, average and
// worst-case execution times, and per-action deadlines. From that model
// it builds a controller that, after every completed action, picks the
// next action (EDF) and the maximal quality level that is (a) safe — all
// remaining deadlines are met even if the next action hits its worst
// case and everything after it falls back to minimal quality — and
// (b) optimal — the available time budget is filled as far as average
// behaviour allows.
//
// The API has three layers:
//
//	SystemBuilder   one fluent place to declare the whole model
//	Session         the per-stream run loop over one controller
//	Runtime         a goroutine-safe server: one System, many Sessions
//
// Quick start — build a model, run one stream:
//
//	sys, err := qos.NewSystemBuilder().
//		Levels(0, 3).
//		Actions("decode", "render").
//		Edge("decode", "render").
//		TimeAll("decode", 40, 80).
//		Time("render", 0, 10, 20).
//		Time("render", 1, 20, 40).
//		Time("render", 2, 40, 80).
//		Time("render", 3, 80, 160).
//		DeadlineAll("render", 300).
//		Build()
//	s, err := qos.NewSession(sys)
//	for cycle := 0; cycle < n; cycle++ {
//		s.Reset()
//		res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
//			return run(a, q) // your action, your measurement
//		})
//	}
//
// Models can also be loaded from the prototype tool's ".qos" text format
// (levels / action / edge / time / deadline / iterate directives):
//
//	b, err := qos.LoadModel("app.qos")
//	sys, err := b.Build()
//
// To serve many concurrent streams, share one System's precomputed
// tables through a Runtime — sessions are pooled and cheap, and any
// number of goroutines may acquire them:
//
//	rt, err := qos.NewRuntime(sys)
//	go func() { // per stream
//		s := rt.Acquire()
//		defer rt.Release(s)
//		res, err := s.Run(workload)
//	}()
//
// Observer hooks (on-decision, on-fallback, on-completion) attach to
// sessions for tracing, profiling (Recorder) and online learning of
// average execution times (EWMA). A CycleResult carries only the run's
// totals (steps, elapsed time, misses, fallbacks, mean level); per-action
// detail comes from an Observer or from the workload function itself,
// so a Run allocates nothing per cycle.
//
// The subpackages used by the benchmark harness (the MPEG-4 encoder
// model, the synthetic video source, the camera/buffer pipeline) are
// exposed through the helper functions in harness.go. The previous
// hand-wiring surface (NewGraphBuilder / NewSystem / NewController) has
// been removed; see README.md for the migration table to SystemBuilder,
// NewProgram and NewSession.
package qos

import (
	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/platform"
	"repro/internal/session"
	"repro/internal/trace"
)

// Core model types.
type (
	// ActionID identifies an action in a Graph.
	ActionID = core.ActionID
	// Graph is an immutable precedence graph of actions.
	Graph = core.Graph
	// Cycles counts CPU cycles, the library's time unit.
	Cycles = core.Cycles
	// TimeFn maps actions to times (execution times or deadlines).
	TimeFn = core.TimeFn
	// Level is a quality level.
	Level = core.Level
	// LevelSet is the ordered set Q of quality levels.
	LevelSet = core.LevelSet
	// TimeFamily is a quality-indexed family of time functions.
	TimeFamily = core.TimeFamily
	// Assignment is a quality assignment θ : A → Q.
	Assignment = core.Assignment
	// System is a parameterized real-time system (graph + families).
	System = core.System
	// Decision is one controller step: an action and its level.
	Decision = core.Decision
	// CycleResult summarises a controlled cycle.
	CycleResult = core.CycleResult
	// ControllerStats accumulates per-cycle controller behaviour.
	ControllerStats = core.ControllerStats
	// Mode selects hard or soft constraint enforcement.
	Mode = core.Mode
	// Option configures a Program (controller mode, smoothness,
	// tables, schedule, evaluator).
	Option = core.Option
)

// Controller modes.
const (
	// Hard enforces safety and optimality constraints (no misses).
	Hard = core.Hard
	// Soft enforces only the average-time constraint.
	Soft = core.Soft
)

// Inf is the +∞ value for Cycles (absent deadline / unbounded time).
const Inf = core.Inf

// Mcycle is one million cycles.
const Mcycle = core.Mcycle

// The three API layers.
type (
	// SystemBuilder accumulates actions, edges, levels, per-level
	// times and deadlines in one fluent value and validates them as a
	// whole; Build errors name the offending action and level.
	SystemBuilder = session.SystemBuilder
	// Session is the per-stream run loop over one controller: Next /
	// Completed, Run(workload), Reset, and Observer hooks.
	Session = session.Session
	// SessionOption configures NewSession.
	SessionOption = session.SessionOption
	// Runtime is a goroutine-safe multi-stream server: one System's
	// precomputed tables shared across any number of Sessions.
	Runtime = session.Runtime
	// RuntimeStats is a snapshot of a Runtime's served totals.
	RuntimeStats = session.RuntimeStats
	// Observer receives a session's control events (decision,
	// fallback, completion).
	Observer = session.Observer
	// FuncObserver adapts plain functions to Observer.
	FuncObserver = session.FuncObserver
	// Program is the immutable precomputed half of a controller,
	// shared by all sessions of a Runtime.
	Program = core.Program
	// Controller is the per-stream decision loop (advanced use; most
	// callers drive a Session instead).
	Controller = core.Controller
)

var (
	// NewSystemBuilder returns an empty fluent system builder.
	NewSystemBuilder = session.NewSystemBuilder
	// ParseModel reads the ".qos" text-model format into a builder.
	ParseModel = session.ParseModel
	// LoadModel reads a ".qos" model file into a builder.
	LoadModel = session.LoadModel
	// NewSession builds a stand-alone per-stream session.
	NewSession = session.NewSession
	// WithObserver attaches an observer to a session.
	WithObserver = session.WithObserver
	// WithControllerOptions forwards controller options to a
	// stand-alone session.
	WithControllerOptions = session.WithControllerOptions
	// NewRuntime builds the multi-stream server for a system.
	NewRuntime = session.NewRuntime
	// NewRuntimeFromProgram serves an already-built program.
	NewRuntimeFromProgram = session.NewRuntimeFromProgram
	// NewProgram precomputes a system's shared controller state.
	NewProgram = core.NewProgram
	// RecorderObserver streams completed actions into a Recorder.
	RecorderObserver = session.RecorderObserver
	// EWMAObserver streams completed actions into an EWMA learner.
	EWMAObserver = session.EWMAObserver
)

// The mixer: shared-budget control across concurrent streams. Where a
// Controller arbitrates one stream's quality levels against one cycle
// budget, a SharedBudget arbitrates N streams against one global CPU
// budget per period: admission reserves each stream's worst-case qmin
// need, the slack is re-partitioned between streams at cycle boundaries
// under a policy, and Runtime.AcquireBudgeted charges each stream its
// handicap at every cycle start, read once through
// BudgetSource.LeaseDelay.
type (
	// SharedBudget is the goroutine-safe global budget controller.
	SharedBudget = mixer.Budget
	// StreamGrant is one admitted stream's handle on a SharedBudget.
	StreamGrant = mixer.Grant
	// StreamSpec is a stream's admission contract (nominal horizon,
	// worst-case qmin need, full-quality need, weight).
	StreamSpec = mixer.StreamSpec
	// SharePolicy selects how slack is split between streams.
	SharePolicy = mixer.Policy
	// SharedBudgetStats is a snapshot of a SharedBudget.
	SharedBudgetStats = mixer.Stats
	// BudgetSource yields a budgeted session's per-cycle handicap, or
	// an error once the share is revoked (lease expiry, SetTotal
	// shrink); StreamGrant implements it and budgeted sessions fail
	// fast on revocation at the next Reset.
	BudgetSource = session.BudgetSource
)

// Share policies.
const (
	// FairShare splits slack equally (water-filling).
	FairShare = mixer.Fair
	// WeightedShare splits slack proportionally to grant weights.
	WeightedShare = mixer.Weighted
	// GreedyShare maximises aggregate level: cheapest streams to lift
	// to full quality fill first.
	GreedyShare = mixer.Greedy
)

var (
	// NewSharedBudget builds a shared budget of total cycles per
	// period under a policy.
	NewSharedBudget = mixer.New
	// StreamSpecFromProgram derives a stream's admission contract from
	// its precomputed program.
	StreamSpecFromProgram = mixer.SpecFromProgram
	// ErrBudgetExhausted rejects an admission the budget cannot carry
	// even at minimal quality.
	ErrBudgetExhausted = mixer.ErrBudgetExhausted
	// ErrGrantRevoked reports a grant whose lease expired (the stream
	// stopped reaching cycle boundaries) or that was released; the
	// reservation has been reclaimed.
	ErrGrantRevoked = mixer.ErrGrantRevoked
	// ErrWorkloadPanic reports a workload that panicked mid-cycle; the
	// session is terminal and its controller is quarantined.
	ErrWorkloadPanic = session.ErrWorkloadPanic
)

// Controller options (forwarded via WithControllerOptions, NewRuntime
// or NewProgram).
var (
	// WithMode selects hard or soft control.
	WithMode = core.WithMode
	// WithMaxStep bounds upward quality jumps (smoothness).
	WithMaxStep = core.WithMaxStep
	// WithTables forces or forbids the precomputed-table fast path.
	WithTables = core.WithTables
	// WithSchedule fixes the schedule order.
	WithSchedule = core.WithSchedule
	// WithEvaluator installs a custom admissibility evaluator.
	WithEvaluator = core.WithEvaluator
	// WithReferenceScan forces the retained linear-scan reference path
	// (for differential testing against the threshold engine).
	WithReferenceScan = core.WithReferenceScan
	// WithProgramCache attaches an LRU retarget cache to the program.
	WithProgramCache = core.WithProgramCache
	// NewProgramCache builds an LRU cache of re-targeted programs.
	NewProgramCache = core.NewProgramCache
)

// Analysis and codegen-side types: schedules, tables, evaluators.
type (
	// Tables are precomputed constraint tables (the generated
	// controller's fast path).
	Tables = core.Tables
	// IterativeTables is the constant-memory evaluator for n-fold
	// iterated bodies with an end-of-cycle deadline.
	IterativeTables = core.IterativeTables
	// Evaluator is the admissibility oracle interface.
	Evaluator = core.Evaluator
	// LevelSelector is the threshold fast path: the maximal admissible
	// level, warm-started from the previous decision's level: O(1)
	// probes while that level holds, O(log|Q|) at worst.
	LevelSelector = core.LevelSelector
	// ProgramCache is a small LRU of re-targeted programs keyed by
	// deadline family.
	ProgramCache = core.ProgramCache
)

var (
	// NewTables precomputes constraint tables along a schedule.
	NewTables = core.NewTables
	// NewIterativeTables builds the constant-memory evaluator.
	NewIterativeTables = core.NewIterativeTables
	// EDFSchedule computes the EDF schedule of a graph.
	EDFSchedule = core.EDFSchedule
	// EDFScheduleUnmodified is the no-deadline-modification ablation.
	EDFScheduleUnmodified = core.EDFScheduleUnmodified
	// ModifiedDeadlines propagates deadlines through precedence.
	ModifiedDeadlines = core.ModifiedDeadlines
	// Feasible tests min(D(α) − Ĉ(α)) >= 0.
	Feasible = core.Feasible
)

// Timing-analysis types: profiling and learning, the inputs to the
// Cav/Cwc families and the sinks of the session observers.
type (
	// Recorder accumulates per-(action, level) execution samples.
	Recorder = trace.Recorder
	// Sample is one observed action execution.
	Sample = trace.Sample
	// EstimateConfig controls Recorder.Estimate.
	EstimateConfig = trace.EstimateConfig
	// EWMA learns average execution times online.
	EWMA = trace.EWMA
)

var (
	// NewRecorder allocates a sample recorder.
	NewRecorder = trace.NewRecorder
	// NewEWMA builds an online average-time learner.
	NewEWMA = trace.NewEWMA
)

// Platform types: the simulated execution environment.
type (
	// Clock abstracts the platform cycle counter.
	Clock = platform.Clock
	// SimClock is the deterministic virtual cycle clock.
	SimClock = platform.SimClock
	// Executor runs controlled or constant cycles on a clock.
	Executor = platform.Executor
	// Workload models actual execution times.
	Workload = platform.Workload
	// WorkloadFunc adapts a function to Workload.
	WorkloadFunc = platform.WorkloadFunc
	// RNG is the deterministic generator used across the simulators.
	RNG = platform.RNG
)

var (
	// NewSimClock returns a virtual clock at cycle 0.
	NewSimClock = platform.NewSimClock
	// NewExecutor returns an executor on a fresh simulated clock.
	NewExecutor = platform.NewExecutor
	// NewRNG returns a seeded deterministic generator.
	NewRNG = platform.NewRNG
)
