package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Proposition 2.1 (safety): for any system feasible at qmin under worst
// case, and any actual execution times C <= Cwc_θ, the controlled run
// misses no deadline. Exercised over random systems, random loads, both
// evaluator paths.
func TestPropertyProposition21Safety(t *testing.T) {
	for _, useTables := range []bool{true, false} {
		name := "direct"
		if useTables {
			name = "tables"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, overloadRaw uint8) bool {
				r := rand.New(rand.NewSource(seed))
				sys := randomSystem(r, 8, 5)
				c := mustControllerQ(t, sys, WithTables(useTables))
				overload := float64(overloadRaw%100) / 100
				res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
					return actualDraw(r, sys, a, q, overload)
				})
				if err != nil {
					return false
				}
				return res.Misses == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mustControllerQ is mustController usable inside quick closures.
func mustControllerQ(t *testing.T, sys *System, opts ...Option) *Controller {
	c, err := NewController(sys, opts...)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

// Safety must hold even at sustained worst-case load (C = Cwc exactly).
func TestPropertySafetyAtFullWorstCase(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := randomSystem(r, 8, 5)
		c := mustControllerQ(t, sys)
		res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
			return sys.Cwc.At(q, a)
		})
		if err != nil {
			return false
		}
		return res.Misses == 0 && res.Fallbacks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Optimality: every decision picks the maximum level admitted by
// Qual_Const, verified independently with the direct predicates. The
// table path evaluates constraints along its fixed schedule order; the
// direct path re-derives Best_Sched per candidate level — the
// independent check mirrors whichever path is active.
func TestPropertyDecisionIsMaximalAdmissible(t *testing.T) {
	for _, useTables := range []bool{true, false} {
		name := "direct"
		if useTables {
			name = "tables"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				sys := randomSystem(r, 7, 5)
				c := mustControllerQ(t, sys, WithTables(useTables))
				for !c.Done() {
					i := c.Position()
					tNow := c.Elapsed()
					alpha := c.Schedule()
					theta := c.Assignment()
					d, err := c.Next()
					if err != nil {
						return false
					}
					// Independent recomputation of qM.
					best := Level(-1)
					for _, q := range sys.Levels {
						thetaQ := theta.OverrideFrom(alpha, i, q)
						alphaQ := alpha
						if !useTables {
							alphaQ = BestSched(sys, alpha, thetaQ, i)
						}
						if QualConstAv(sys, alphaQ, thetaQ, tNow, i) &&
							QualConstWc(sys, alphaQ, thetaQ, tNow, i) {
							best = q
						}
					}
					if best < 0 {
						return false // contradicts Prop 2.1 inductive invariant
					}
					if d.Level != best {
						return false
					}
					c.Completed(actualDraw(r, sys, d.Action, d.Level, 0.3))
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The inductive invariant behind Prop 2.1: under the contract C <= Cwc_θ,
// qmin is always admissible, so the controller never needs Fallback.
func TestPropertyNoFallbackUnderContract(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := randomSystem(r, 8, 4)
		c := mustControllerQ(t, sys)
		res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
			return actualDraw(r, sys, a, q, 0.9)
		})
		return err == nil && res.Fallbacks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRejectsInfeasibleSystem(t *testing.T) {
	sys := tinySystem(t)
	// Shrink deadlines below qmin worst case total (20+20=40).
	d := NewTimeFamily(sys.Levels, 2, 30)
	bad := *sys
	bad.D = d
	if _, err := NewController(&bad); err == nil {
		t.Fatal("infeasible system accepted in hard mode")
	}
	// Soft mode tolerates it.
	if _, err := NewController(&bad, WithMode(Soft)); err != nil {
		t.Fatalf("soft mode rejected: %v", err)
	}
}

func TestControllerPicksHighQualityWhenFast(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	// Actual times are tiny: the controller should hold level 1.
	res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
		if q != 1 {
			t.Errorf("action %d at level %d, want 1 (budget is ample)", a, q)
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Errorf("misses = %d", res.Misses)
	}
}

func TestControllerDegradesUnderLoad(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	// First action at level 1 burns its worst case (50); the remaining
	// budget (50) cannot admit level 1 again for b under wc reasoning:
	// slack for level 1 at position 1 is min(100) - 50 = 50 => t=50 is
	// exactly admissible. Make it inadmissible by consuming 51.
	d1, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Level != 1 {
		t.Fatalf("first decision level = %d, want 1", d1.Level)
	}
	c.Completed(51)
	d2, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Level != 0 {
		t.Fatalf("second decision level = %d, want degraded 0", d2.Level)
	}
	c.Completed(20)
	if !c.Done() {
		t.Fatal("cycle should be done")
	}
	if c.Elapsed() != 71 {
		t.Fatalf("elapsed = %v, want 71", c.Elapsed())
	}
}

func TestControllerFallbackBeyondContract(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	// Violate the contract: consume 95 cycles on action a (> Cwc=50).
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Completed(95)
	d, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Even qmin cannot be guaranteed (95+20 > 100 is fine... 115 > 100):
	// the controller must degrade to qmin and flag Fallback.
	if d.Level != 0 || !d.Fallback {
		t.Fatalf("decision = %+v, want qmin fallback", d)
	}
}

func TestControllerResetAndReuse(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	if _, err := c.RunCycle(func(ActionID, Level) Cycles { return 5 }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err == nil {
		t.Fatal("Next after completion should error")
	}
	c.Reset()
	if c.Done() || c.Elapsed() != 0 || c.Position() != 0 {
		t.Fatal("Reset did not clear state")
	}
	res, err := c.RunCycle(func(ActionID, Level) Cycles { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatal("second cycle missed")
	}
}

func TestSoftModeIgnoresWorstCase(t *testing.T) {
	sys := tinySystem(t)
	hard := mustController(t, sys)
	soft := mustController(t, sys, WithMode(Soft))
	// At position 1 (only b left), level 1 has wc slack 100-50=50 and av
	// slack 100-30=70. At t=60 the hard controller rejects level 1 (wc)
	// while the soft controller admits it (av only).
	if _, err := hard.Next(); err != nil {
		t.Fatal(err)
	}
	hard.Completed(60)
	dh, _ := hard.Next()
	if dh.Level != 0 {
		t.Fatalf("hard level = %d, want 0", dh.Level)
	}
	if _, err := soft.Next(); err != nil {
		t.Fatal(err)
	}
	soft.Completed(60)
	ds, _ := soft.Next()
	if ds.Level != 1 {
		t.Fatalf("soft level = %d, want 1", ds.Level)
	}
}

func TestSmoothnessBoundsUpwardJumps(t *testing.T) {
	// Build a 6-level system with lots of slack so the unbounded
	// controller would jump straight to the top.
	b := NewGraphBuilder()
	b.AddAction("a")
	b.AddAction("b")
	b.AddAction("c")
	b.AddEdge("a", "b")
	b.AddEdge("b", "c")
	g := mustGraph(t, b)
	levels := NewLevelRange(0, 5)
	cav := NewTimeFamily(levels, 3, 0)
	cwc := NewTimeFamily(levels, 3, 0)
	d := NewTimeFamily(levels, 3, 10_000)
	for a := ActionID(0); a < 3; a++ {
		for qi, q := range levels {
			cav.Set(q, a, Cycles(10+qi))
			cwc.Set(q, a, Cycles(20+2*qi))
		}
	}
	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	c := mustController(t, sys, WithMaxStep(1))
	var seen []Level
	_, err = c.RunCycle(func(_ ActionID, q Level) Cycles {
		seen = append(seen, q)
		return 10
	})
	if err != nil {
		t.Fatal(err)
	}
	// First decision has no previous level: unbounded, takes 5. After
	// that, +1 per step at most. With maxStep 1 the first is capped only
	// by admissibility.
	for i := 1; i < len(seen); i++ {
		if seen[i] > seen[i-1]+1 {
			t.Fatalf("levels %v: jump at %d exceeds maxStep 1", seen, i)
		}
	}
}

func TestWithScheduleFixedOrder(t *testing.T) {
	sys := tinySystem(t)
	order := []ActionID{0, 1}
	c := mustController(t, sys, WithSchedule(order))
	if _, err := c.RunCycle(func(ActionID, Level) Cycles { return 1 }); err != nil {
		t.Fatal(err)
	}
	if got := c.Schedule(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("schedule = %v", got)
	}
}

func TestWithScheduleRejectsInvalid(t *testing.T) {
	sys := tinySystem(t)
	if _, err := NewController(sys, WithSchedule([]ActionID{1, 0})); err == nil {
		t.Fatal("invalid fixed schedule accepted")
	}
}

func TestWithTablesRejectsNonUniform(t *testing.T) {
	sys := tinySystem(t)
	// Make deadline order depend on quality: at level 0 a before b, at
	// level 1 b before a.
	d := NewTimeFamily(sys.Levels, 2, 0)
	d.Set(0, 0, 50)
	d.Set(0, 1, 100)
	d.Set(1, 0, 100)
	d.Set(1, 1, 50)
	ns := *sys
	ns.D = d
	if _, err := NewController(&ns, WithTables(true)); err == nil {
		t.Fatal("tables forced on non-uniform deadlines accepted")
	}
	// Unforced construction must auto-select the direct path.
	c, err := NewController(&ns, WithMode(Soft))
	if err != nil {
		t.Fatal(err)
	}
	if c.prog.useTables {
		t.Fatal("controller chose tables for non-uniform deadline order")
	}
}

func TestRetarget(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	// Tighten the budget: still feasible at qmin (40 needed).
	d2 := NewTimeFamily(sys.Levels, 2, 45)
	if err := c.Retarget(d2); err != nil {
		t.Fatalf("Retarget: %v", err)
	}
	// With a 45-cycle budget, level 1 (wc 50) must never be chosen.
	var levels []Level
	res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
		levels = append(levels, q)
		return sys.Cwc.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses after retarget = %d", res.Misses)
	}
	for _, q := range levels {
		if q != 0 {
			t.Fatalf("level %d chosen under tight budget", q)
		}
	}
	// Infeasible retarget is rejected.
	d3 := NewTimeFamily(sys.Levels, 2, 10)
	c.Reset()
	if err := c.Retarget(d3); err == nil {
		t.Fatal("infeasible retarget accepted")
	}
}

func TestRetargetMidCycleRejected(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Completed(1)
	if err := c.Retarget(NewTimeFamily(sys.Levels, 2, 200)); err == nil {
		t.Fatal("mid-cycle Retarget accepted")
	}
}

func TestControllerStats(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	res, err := c.RunCycle(func(ActionID, Level) Cycles { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Decisions != 2 {
		t.Errorf("Decisions = %d, want 2", res.Stats.Decisions)
	}
	if res.Stats.CandidateEval == 0 {
		t.Error("CandidateEval not counted")
	}
	if res.MeanLevel() != 1 {
		t.Errorf("MeanLevel = %v, want 1", res.MeanLevel())
	}
}

// Budget utilisation (the optimality sense of Prop 2.1): the controlled
// run at average load should use strictly more of the budget than a
// constant-qmin run, on systems where higher levels cost more.
func TestPropertyUtilisationBeatsQmin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := randomSystem(r, 8, 4)
		if len(sys.Levels) == 1 {
			return true
		}
		c := mustControllerQ(t, sys)
		res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
			return sys.Cav.At(q, a)
		})
		if err != nil || res.Misses != 0 {
			return false
		}
		// Constant qmin run at average times.
		var tQmin Cycles
		for _, a := range c.Schedule() {
			tQmin += sys.Cav.At(sys.QMin(), a)
		}
		return res.Elapsed >= tQmin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
