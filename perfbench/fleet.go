package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/platform"
	"repro/internal/session"
)

// The fleet workload serves fleetStreams hard-mode streams of the MPEG
// body model in-process, on one Fair shared budget sized a quarter of
// the way from the streams' admission floor to full quality, with
// leasing armed. One goroutine serves the streams round-robin and
// rebalances the budget once per period (one cycle of every stream).
const (
	fleetStreams = 32
	fleetLease   = 8
	// fleetVariants is how many seeded cost rows the dense cost table
	// holds; a prime, so a stream sees a different row every period.
	fleetVariants = 61
)

type fleet struct {
	sys    *core.System
	rt     *session.Runtime
	spec   mixer.StreamSpec
	budget *mixer.Budget
	grants []*mixer.Grant
	sess   []*session.Session

	// costs is the dense cost table, [variant][action][level index]:
	// each action costs a seeded fraction of the way from its level's
	// average time to its worst case, so hard mode cannot miss.
	costs    []core.Cycles
	stride   int // actions × levels
	nLevels  int
	levelIdx []int // level value → level index
}

// newFleet loads the model, builds the runtime and admits the streams:
// the fleet's set-up. tr, when non-nil, records the set-up as request
// req.
func newFleet(tr *tracer, req int64) (*fleet, error) {
	root := tr.begin(spBenchSetup, noParent, req)
	defer tr.end(root)
	b, err := session.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	i := tr.begin(spCoreNewProgram, root, req)
	rt, err := session.NewRuntime(sys) // Hard mode: builds the core.Program
	tr.end(i)
	if err != nil {
		return nil, err
	}
	f := &fleet{sys: sys, rt: rt}
	if f.spec, err = mixer.SpecFromProgram(rt.Program()); err != nil {
		return nil, err
	}
	perStream := f.spec.MinNeed.AddSat(f.spec.FullNeed.SubSat(f.spec.MinNeed) / 4)
	if f.budget, err = mixer.New(perStream.MulSat(fleetStreams), mixer.Fair); err != nil {
		return nil, err
	}
	f.budget.SetLease(fleetLease)
	for i := 0; i < fleetStreams; i++ {
		g, err := f.budget.Admit(f.spec)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("admitting stream %d: %w", i, err)
		}
		s := rt.AcquireBudgeted(g)
		s.SetLean(true)
		f.grants = append(f.grants, g)
		f.sess = append(f.sess, s)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, s := range f.sess {
		f.rt.Release(s)
	}
	for _, g := range f.grants {
		g.Release()
	}
	f.sess, f.grants = nil, nil
}

// buildCosts fills the dense cost table from the seed.
func (f *fleet) buildCosts(seed uint64) {
	levels := f.sys.Levels
	f.nLevels = len(levels)
	f.levelIdx = make([]int, int(levels.Max())+1)
	for i, q := range levels {
		f.levelIdx[q] = i
	}
	nActions := f.sys.Graph.Len()
	f.stride = nActions * f.nLevels
	f.costs = make([]core.Cycles, fleetVariants*f.stride)
	rng := platform.NewRNG(seed)
	for v := 0; v < fleetVariants; v++ {
		for a := 0; a < nActions; a++ {
			for qi, q := range levels {
				av := f.sys.Cav.At(q, core.ActionID(a))
				wc := f.sys.Cwc.At(q, core.ActionID(a))
				if wc.IsInf() {
					wc = av.MulSat(2)
				}
				span := float64(wc.SubSat(av))
				f.costs[v*f.stride+a*f.nLevels+qi] = core.Cycles(float64(av) + rng.Float64()*span)
			}
		}
	}
}

// fleetStats accumulates one serving phase, which may be served in
// several slices.
type fleetStats struct {
	cycles, failed int64
	periods        int64
	levelSum       float64
	decisions      int64
	probes         int64
	fallbacks      int64
	// lat samples ns per stream-cycle and wins holds every full window
	// (untraced phases only).
	lat  *reservoir
	wins []windowStat
	wall time.Duration
	errs []string
	// variant is the next row of the cost table.
	variant int
	// inject makes the next action overrun the whole period: a
	// deadline miss the correctness check must catch.
	inject bool
}

func newFleetStats(seed uint64, inject bool) *fleetStats {
	return &fleetStats{lat: newReservoir(latencySamples, seed), inject: inject}
}

// fleetTrace configures span recording for a serving phase: every
// every-th period is recorded in full — its rebalance, and for each
// stream-cycle the Reset, the RunFunc and every workload callback.
type fleetTrace struct {
	tr    *tracer
	every int64
	req   int64 // last request id used
	// decisions counts the decisions of recorded cycles.
	decisions int64
}

// serve runs periods until the deadline, adding them to st. With ft
// nil nothing is traced, stream-cycle latencies are sampled and cycles
// are counted per window.
func (f *fleet) serve(st *fleetStats, until time.Time, ft *fleetTrace) {
	start := time.Now()
	var win *windows
	if ft == nil {
		win = newWindows(start, until.Sub(start), uint64(len(st.wins)))
	}
	var (
		row     []core.Cycles
		traceOn bool
		parent  int32
	)
	work := func(a core.ActionID, q core.Level) core.Cycles {
		c := row[int(a)*f.nLevels+f.levelIdx[q]]
		if st.inject {
			st.inject = false
			c = f.spec.Nominal.MulSat(2)
		}
		return c
	}
	traced := func(a core.ActionID, q core.Level) core.Cycles {
		i := ft.tr.begin(spBenchWorkload, parent, ft.req)
		c := work(a, q)
		ft.tr.end(i)
		return c
	}
	for p := int64(0); ; p++ {
		now := time.Now()
		if win != nil && p > 0 {
			win.add(now, fleetStreams)
		}
		if now.After(until) {
			break
		}
		traceOn = ft != nil && st.periods%ft.every == 0 && ft.tr.room(1+fleetStreams*(3+f.sys.Graph.Len()))
		if traceOn {
			ft.req++
			i := ft.tr.begin(spMixerRebalance, noParent, ft.req)
			f.budget.Rebalance()
			ft.tr.end(i)
		} else {
			f.budget.Rebalance()
		}
		st.periods++
		for si, s := range f.sess {
			row = f.costs[st.variant*f.stride : (st.variant+1)*f.stride]
			st.variant = (st.variant + 1) % fleetVariants
			var res core.CycleResult
			var err error
			if traceOn {
				ft.req++
				t0 := time.Now()
				root := ft.tr.begin(spBenchCycle, noParent, ft.req)
				i := ft.tr.begin(spSessionReset, root, ft.req)
				s.Reset()
				ft.tr.end(i)
				parent = ft.tr.begin(spSessionRun, root, ft.req)
				res, err = s.RunFunc(traced)
				ft.tr.end(parent)
				ft.tr.end(root)
				ft.tr.enclose(root, t0, time.Now())
				ft.decisions += int64(res.Stats.Decisions)
			} else {
				t0 := time.Now()
				s.Reset()
				res, err = s.RunFunc(work)
				if ft == nil {
					t1 := time.Now()
					st.lat.add(int64(t1.Sub(t0)))
					win.latency(t1, t1.Sub(t0))
				}
			}
			st.cycles++
			st.levelSum += res.MeanLevel()
			st.decisions += int64(res.Stats.Decisions)
			st.probes += int64(res.Stats.CandidateEval)
			st.fallbacks += int64(res.Fallbacks)
			if err != nil || res.Misses > 0 {
				st.failed++
				if len(st.errs) < 5 {
					st.errs = append(st.errs, fmt.Sprintf("stream %d period %d: %d misses, err %v", si, st.periods, res.Misses, err))
				}
			}
		}
	}
	elapsed := time.Since(start)
	st.wall += elapsed
	if win != nil {
		st.wins = append(st.wins, win.stats(elapsed)...)
	}
}

func (f *fleet) shareFraction() float64 {
	var sum float64
	for _, g := range f.grants {
		sum += float64(g.Share()) / float64(f.spec.Nominal)
	}
	return sum / float64(len(f.grants))
}

func runFleet(e env) (*result, error) {
	if !e.trace {
		return runFleetUntraced(e)
	}
	tr := newTracer(time.Now(), spanCapacity)
	f, _, err := repeatSetup(func(i int) (*fleet, error) {
		return newFleet(tr, int64(-1-i))
	}, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.buildCosts(e.seed)
	res := &result{}

	// An untraced half, then a traced half sampled to fit the span log.
	half := e.window / 2
	a := newFleetStats(e.seed, e.inject)
	r0 := readRuntime()
	f.serve(a, time.Now().Add(half), nil)
	r1 := readRuntime()
	recordFleet(res, a)
	periodsPerS := float64(a.periods) / a.wall.Seconds()
	ft := &fleetTrace{tr: tr, every: int64(sampleEvery(periodsPerS*half.Seconds(),
		1+fleetStreams*(3+f.sys.Graph.Len()), spanCapacity*4/5))}
	b := &fleetStats{}
	f.serve(b, time.Now().Add(half), ft)
	r2 := readRuntime()
	recordFleet(res, b)
	sum := tr.summarize()
	if sum.violations > 0 {
		res.violate("fleet trace: %d span structure violations", sum.violations)
	}
	clk := clockNs(tr)
	run := sum.byName[spSessionRun]
	decideNs := 0.0
	if ft.decisions > 0 {
		decideNs = (float64(run.self) - float64(run.children)*clk) / float64(ft.decisions)
	}
	res.layer = map[string]float64{
		"core.decide_ns":           decideNs,
		"core.probes_per_decision": float64(a.probes) / float64(a.decisions),
		"core.fallbacks_per_cycle": float64(a.fallbacks) / float64(a.cycles),
		"core.new_program_ms":      median(tr.durations(spCoreNewProgram)) / 1e6,
		"session.reset_ns":         sum.meanDur(spSessionReset),
		"session.allocs_per_cycle": float64(r1.allocObjs-r0.allocObjs) / float64(a.cycles),
		"mixer.rebalance_us":       sum.meanDur(spMixerRebalance) / 1e3,
		"mixer.mutex_wait_ms":      (r2.mutexWaitS - r1.mutexWaitS) * 1e3,
		"mixer.share_fraction":     f.shareFraction(),
		"bench.workload_ns":        sum.meanSelf(spBenchWorkload),
		"bench.trace_overhead":     (b.wall.Seconds()/float64(b.cycles))/(a.wall.Seconds()/float64(a.cycles)) - 1,
		"bench.clock_ns":           clk,
		"bench.spans":              float64(len(tr.spans)),
	}
	res.opsPerS, _ = quiet(a.wins)
	res.add("cycles_per_s", res.opsPerS, "1/s")
	res.add("traced_cycles_per_s", float64(b.cycles)/b.wall.Seconds(), "1/s")
	res.add("trace_sample_every_periods", float64(ft.every), "count")
	res.add("trace_root_coverage", sum.coverage, "ratio")
	res.tr = tr
	return res, nil
}

// runFleetUntraced serves the fleet for the run's window, timing
// set-up between slices of it.
func runFleetUntraced(e env) (*result, error) {
	f, err := newFleet(nil, 0)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.buildCosts(e.seed)
	st := newFleetStats(e.seed, e.inject)
	setupS, err := interleave(e.window,
		func() (*fleet, error) { return newFleet(nil, 0) },
		(*fleet).close,
		func(until time.Time) error {
			f.serve(st, until, nil)
			return nil
		})
	if err != nil {
		return nil, err
	}
	res := &result{setupS: setupS}
	recordFleet(res, st)
	nWins := len(st.wins)
	res.opsPerS, res.opP50us = quiet(st.wins)
	p50, p99 := percentileNs(st.lat.buf, 0.50), percentileNs(st.lat.buf, 0.99)
	res.add("setup_s", setupS, "s")
	res.add("cycles_per_s", res.opsPerS, "1/s")
	res.add("cycles_per_s_mean", float64(st.cycles)/st.wall.Seconds(), "1/s")
	res.add("cycle_p50_us", res.opP50us, "us")
	res.add("cycle_p50_us_all", p50, "us")
	res.add("cycle_p99_us", p99, "us")
	res.add("mean_level", st.levelSum/float64(st.cycles), "level")
	res.add("cycle_samples", float64(len(st.lat.buf)), "count")
	res.add("windows", float64(nWins), "count")
	return res, nil
}

// recordFleet counts a phase's stream-cycles and failures.
func recordFleet(res *result, st *fleetStats) {
	res.attempted += st.cycles
	res.failed += st.failed
	for _, m := range st.errs {
		res.violate("fleet: %s", m)
	}
}
