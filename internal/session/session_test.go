package session

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func demoSystem(t testing.TB) *core.System {
	t.Helper()
	sys, err := demoBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSessionRunCountsAndHooks(t *testing.T) {
	sys := demoSystem(t)
	var decisions, completions, fallbacks int
	s, err := NewSession(sys, WithObserver(FuncObserver{
		Decision:   func(core.Decision) { decisions++ },
		Completion: func(_ core.Decision, _, _ core.Cycles) { completions++ },
		Fallback:   func(core.Decision) { fallbacks++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 || res.Steps != 3 {
		t.Fatalf("run: %+v", res)
	}
	if decisions != 3 || completions != 3 || fallbacks != 0 {
		t.Fatalf("hooks: decisions=%d completions=%d fallbacks=%d", decisions, completions, fallbacks)
	}
	// Reset reuses the session for the next cycle.
	s.Reset()
	if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cwc.At(q, a)
	}); err != nil {
		t.Fatal(err)
	}
	if decisions != 6 {
		t.Fatalf("hooks did not fire across Reset: decisions=%d", decisions)
	}
}

// TestSessionLeanRun: a default Run allocates nothing per cycle in
// steady state, and its Steps, Elapsed, Misses and MeanLevel match the
// same cycle driven by hand on a controller over the system. The
// workload runs every action at twice its worst case, so the cycle
// misses deadlines and has misses to count.
func TestSessionLeanRun(t *testing.T) {
	sys := demoSystem(t)
	work := func(a core.ActionID, q core.Level) core.Cycles {
		return 2 * sys.Cwc.At(q, a)
	}
	ctrl, err := core.NewController(sys)
	if err != nil {
		t.Fatal(err)
	}
	var steps, misses int
	var levelSum int64
	for !ctrl.Done() {
		d, err := ctrl.Next()
		if err != nil {
			t.Fatal(err)
		}
		ctrl.Completed(work(d.Action, d.Level))
		if dl := sys.D.AtIndex(d.LevelIndex)[d.Action]; !dl.IsInf() && ctrl.Elapsed() > dl {
			misses++
		}
		steps++
		levelSum += int64(d.LevelIndex)
	}
	if misses == 0 {
		t.Fatal("reference cycle missed no deadline; the workload must break the contract")
	}
	s, err := NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunFunc(work)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps || res.Elapsed != ctrl.Elapsed() || res.Misses != misses {
		t.Fatalf("run %+v, want steps=%d elapsed=%v misses=%d", res, steps, ctrl.Elapsed(), misses)
	}
	if got, want := res.MeanLevel(), float64(levelSum)/float64(steps); got != want {
		t.Fatalf("MeanLevel %v, want %v", got, want)
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.Reset()
		if _, err := s.RunFunc(work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state cycle allocates %v times, want 0", allocs)
	}
}

// TestSessionRunMeanLevelCoversOnlyRun: a decision taken by hand
// before Run (one manual Next/Completed) is not part of Run's steps,
// so it must not enter Run's MeanLevel either. The manual step runs at
// the top level and completes late enough that Run's steps average
// lower, so counting it would show.
func TestSessionRunMeanLevelCoversOnlyRun(t *testing.T) {
	sys := demoSystem(t)
	s, err := NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	s.Completed(50)
	var sum int
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		sum += sys.Levels.Index(q)
		return sys.Cav.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Fatalf("Run executed %d steps, want the 2 left after the manual one", res.Steps)
	}
	want := float64(sum) / 2
	if float64(d.LevelIndex) == want {
		t.Fatalf("manual step at index %d does not tell the two means apart", d.LevelIndex)
	}
	if got := res.MeanLevel(); got != want {
		t.Fatalf("MeanLevel %v, want %v over Run's steps only", got, want)
	}
}

func TestSessionFallbackHook(t *testing.T) {
	sys := demoSystem(t)
	var fallbacks int
	s, err := NewSession(sys, WithObserver(FuncObserver{
		Fallback: func(core.Decision) { fallbacks++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Breach the worst-case contract: every action takes far longer
	// than its Cwc, forcing the controller into qmin fallback.
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cwc.At(q, a) * 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 || fallbacks != res.Fallbacks {
		t.Fatalf("fallback hook mismatch: hook=%d result=%d", fallbacks, res.Fallbacks)
	}
}

func TestSessionRecorderObserver(t *testing.T) {
	sys := demoSystem(t)
	rec := trace.NewRecorder(sys.Levels, sys.Graph.Len())
	s, err := NewSession(sys, WithObserver(RecorderObserver(rec, nil)))
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		s.Reset()
		if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
			return sys.Cav.At(q, a)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var samples int64
	for a := 0; a < sys.Graph.Len(); a++ {
		for _, q := range sys.Levels {
			samples += rec.Count(core.ActionID(a), q)
		}
	}
	if samples != 12 {
		t.Fatalf("recorder saw %d samples, want 12", samples)
	}
	// The recorded samples round-trip into valid families.
	cav, cwc, err := rec.Estimate(trace.EstimateConfig{WcMargin: 1.25, FillUnsampled: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cav.NonDecreasing() || !cwc.NonDecreasing() {
		t.Fatal("estimated families not monotone")
	}
}

func TestSessionEWMAObserver(t *testing.T) {
	sys := demoSystem(t)
	ewma, err := trace.NewEWMA(sys.Levels, sys.Graph.Len(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(sys, WithObserver(EWMAObserver(ewma, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}); err != nil {
		t.Fatal(err)
	}
	var observed bool
	for a := 0; a < sys.Graph.Len(); a++ {
		for _, q := range sys.Levels {
			if _, ok := ewma.Estimate(core.ActionID(a), q); ok {
				observed = true
			}
		}
	}
	if !observed {
		t.Fatal("EWMA observer recorded nothing")
	}
}

func TestSessionControllerOptions(t *testing.T) {
	sys := demoSystem(t)
	s, err := NewSession(sys, WithControllerOptions(core.WithMode(core.Soft), core.WithMaxStep(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Controller().Program().Mode() != core.Soft {
		t.Fatal("mode option not forwarded")
	}
}

func TestParseModelBuildsSystem(t *testing.T) {
	src := `
levels 0 1
action a
action b
edge a b
time a * 10 20
time b 0 10 20
time b 1 30 50
deadline b * 100
`
	b, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bid, _ := sys.Graph.Lookup("b")
	if sys.Cav.At(1, bid) != 30 || sys.D.At(0, bid) != 100 {
		t.Fatal("model tables not applied")
	}
	// The absorbed model drives a session directly.
	s, err := NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
}

func TestParseModelZeroTimeDefault(t *testing.T) {
	// The text format defaults unspecified times to 0; the builder's
	// coverage check must not reject absorbed models for that.
	src := "levels 0 1\naction a\naction b\nedge a b\ntime a * 1 2\n"
	b, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bid, _ := sys.Graph.Lookup("b")
	if sys.Cav.At(0, bid) != 0 || sys.Cwc.At(1, bid) != 0 {
		t.Fatal("unspecified time did not default to 0")
	}
}
