package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/stats"
)

// PolicyRow compares one adaptation policy over the full benchmark — the
// coarse-grain comparators of internal/sched against the fine-grain
// controller.
type PolicyRow struct {
	Name        string
	Skips       int
	Misses      int
	MeanLevel   float64
	MeanPSNR    float64
	Utilisation float64 // mean encode time / P over encoded frames
}

// ComparePolicies runs the fine-grain controller and every coarse-grain
// policy over the same stream with the same buffer size.
func ComparePolicies(o Options, k int) ([]PolicyRow, error) {
	o = o.fill()
	src, err := o.source()
	if err != nil {
		return nil, err
	}
	levels := mpeg.Levels()
	elasticDemand := func(q core.Level) core.Cycles {
		return mpeg.MacroblockWc(q).MulSat(core.Cycles(o.Macroblocks))
	}
	type entry struct {
		name string
		cfg  pipeline.Config
	}
	entries := []entry{
		{"fine-grain controlled", pipeline.Config{Source: src, K: k, Controlled: true, Seed: o.Seed}},
		{"constant-q3", pipeline.Config{Source: src, K: k, ConstQ: 3, Seed: o.Seed}},
		{"constant-q4", pipeline.Config{Source: src, K: k, ConstQ: 4, Seed: o.Seed}},
		{"skip-over (q3, s=4)", pipeline.Config{Source: src, K: k, Policy: sched.NewSkipOver(3, 4), Seed: o.Seed}},
		{"pid-feedback", pipeline.Config{Source: src, K: k, Policy: sched.NewPIDFeedback(levels), Seed: o.Seed}},
		{"elastic-wc", pipeline.Config{Source: src, K: k, Policy: sched.Elastic{Levels: levels, Demand: elasticDemand}, Seed: o.Seed}},
	}
	rows := make([]PolicyRow, 0, len(entries))
	for _, e := range entries {
		res, err := pipeline.Run(e.cfg)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", e.name, err)
		}
		rows = append(rows, summarisePolicy(e.name, res))
	}
	return rows, nil
}

func summarisePolicy(name string, res *pipeline.Result) PolicyRow {
	row := PolicyRow{Name: name, Skips: res.Skips, Misses: res.Misses}
	var lvl, psnr, util float64
	var encoded int
	p := float64(res.Config.Source.Period())
	for _, r := range res.Records {
		psnr += r.PSNR
		if !r.Skipped {
			lvl += r.MeanLevel
			util += float64(r.Encode) / p
			encoded++
		}
	}
	if encoded > 0 {
		row.MeanLevel = lvl / float64(encoded)
		row.Utilisation = util / float64(encoded)
	}
	if len(res.Records) > 0 {
		row.MeanPSNR = psnr / float64(len(res.Records))
	}
	return row
}

// GrainRow compares control granularity: the fine-grain per-action
// controller against a per-frame (coarse) decision using the same
// machinery, and the per-macroblock-deadline variant.
type GrainRow struct {
	Name         string
	Skips        int
	Misses       int
	Fallbacks    int
	MeanLevel    float64
	MeanPSNR     float64
	MeanEncodeMc float64
}

// CompareGrain runs the granularity ablation. "Coarse" control is
// emulated with the smoothing bound forcing a single decision to stick:
// maxStep 0 (unbounded) vs per-frame PID; the interesting contrast is
// fine-grain vs the per-frame policies, plus per-MB deadlines.
func CompareGrain(o Options, k int) ([]GrainRow, error) {
	o = o.fill()
	src, err := o.source()
	if err != nil {
		return nil, err
	}
	type entry struct {
		name string
		cfg  pipeline.Config
	}
	entries := []entry{
		{"fine-grain (frame deadline)", pipeline.Config{Source: src, K: k, Controlled: true, Seed: o.Seed}},
		{"fine-grain (per-MB deadlines)", pipeline.Config{Source: src, K: k, Controlled: true, Seed: o.Seed,
			ControlledOpts: []mpeg.ControlledOption{mpeg.WithPerMacroblockDeadlines()}}},
		{"fine-grain (smooth, maxStep=1)", pipeline.Config{Source: src, K: k, Controlled: true, Seed: o.Seed,
			ControlledOpts: []mpeg.ControlledOption{mpeg.WithControllerOptions(core.WithMaxStep(1))}}},
		{"per-frame pid-feedback", pipeline.Config{Source: src, K: k, Policy: sched.NewPIDFeedback(mpeg.Levels()), Seed: o.Seed}},
	}
	rows := make([]GrainRow, 0, len(entries))
	for _, e := range entries {
		res, err := pipeline.Run(e.cfg)
		if err != nil {
			return nil, fmt.Errorf("grain %s: %w", e.name, err)
		}
		row := GrainRow{Name: e.name, Skips: res.Skips, Misses: res.Misses, Fallbacks: res.Fallbacks}
		var lvl, psnr, enc float64
		var encoded int
		for _, r := range res.Records {
			psnr += r.PSNR
			if !r.Skipped {
				lvl += r.MeanLevel
				enc += float64(r.Encode) / float64(core.Mcycle)
				encoded++
			}
		}
		if encoded > 0 {
			row.MeanLevel = lvl / float64(encoded)
			row.MeanEncodeMc = enc / float64(encoded)
		}
		if len(res.Records) > 0 {
			row.MeanPSNR = psnr / float64(len(res.Records))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LearningRow compares the controlled encoder with and without online
// average-time learning (the paper's future-work item implemented in
// internal/trace): learning sharpens the optimality constraint when the
// profiled averages drift from the actual content.
type LearningRow struct {
	Name        string
	MeanLevel   float64
	MeanPSNR    float64
	Utilisation float64
	Misses      int
	Skips       int
}

// CompareLearning runs the learning ablation over the same stream.
func CompareLearning(o Options, k int) ([]LearningRow, error) {
	o = o.fill()
	src, err := o.source()
	if err != nil {
		return nil, err
	}
	type entry struct {
		name string
		opts []mpeg.ControlledOption
	}
	entries := []entry{
		{"static averages (figure 5)", nil},
		{"learned averages (EWMA 0.05)", []mpeg.ControlledOption{mpeg.WithLearning(0.05)}},
		{"learned averages (EWMA 0.2)", []mpeg.ControlledOption{mpeg.WithLearning(0.2)}},
	}
	rows := make([]LearningRow, 0, len(entries))
	for _, e := range entries {
		res, err := pipeline.Run(pipeline.Config{
			Source: src, K: k, Controlled: true, Seed: o.Seed, ControlledOpts: e.opts,
		})
		if err != nil {
			return nil, fmt.Errorf("learning %s: %w", e.name, err)
		}
		pr := summarisePolicy(e.name, res)
		rows = append(rows, LearningRow{
			Name:        e.name,
			MeanLevel:   pr.MeanLevel,
			MeanPSNR:    pr.MeanPSNR,
			Utilisation: pr.Utilisation,
			Misses:      res.Misses,
			Skips:       res.Skips,
		})
	}
	return rows, nil
}

// BufferSweepRow is the constant-quality skip count as a function of the
// buffer size K — the paper's argument that "using buffers may not
// completely eliminate frame skips, implies additional cost and
// increases latency".
type BufferSweepRow struct {
	K          int
	Q          core.Level
	Skips      int
	MaxLatency float64 // in periods
	MeanPSNR   float64
}

// BufferSweep sweeps K for a constant-quality encoder.
func BufferSweep(o Options, q core.Level, ks []int) ([]BufferSweepRow, error) {
	o = o.fill()
	src, err := o.source()
	if err != nil {
		return nil, err
	}
	rows := make([]BufferSweepRow, 0, len(ks))
	for _, k := range ks {
		res, err := pipeline.Run(pipeline.Config{Source: src, K: k, ConstQ: q, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		row := BufferSweepRow{K: k, Q: q, Skips: res.Skips}
		var psnr float64
		var maxLat core.Cycles
		for _, r := range res.Records {
			psnr += r.PSNR
			if !r.Skipped && r.Latency() > maxLat {
				maxLat = r.Latency()
			}
		}
		if len(res.Records) > 0 {
			row.MeanPSNR = psnr / float64(len(res.Records))
		}
		row.MaxLatency = float64(maxLat) / float64(src.Period())
		rows = append(rows, row)
	}
	return rows, nil
}

// SmoothnessResult is the static smoothness analysis of the MPEG frame
// system (the paper's "conditions guaranteeing smoothness in terms of
// variations of quality levels").
type SmoothnessResult struct {
	Macroblocks   int
	MaxDrop       int
	WorstPosition int
	WorstFrom     core.Level
	WorstTo       core.Level
	// MaxDropSmoothed is the bound when WithMaxStep(1) also caps upward
	// movement (downward safety drops are never restricted).
	ObservedMaxDrop int // from a simulated run at sustained high load
}

// Smoothness runs the static analysis on a reduced MPEG frame and
// cross-checks it against an observed run.
func Smoothness(nMB int, seed uint64) (*SmoothnessResult, error) {
	budget := mpeg.MacroblockAv(4).MulSat(core.Cycles(nMB))
	fs, err := mpeg.BuildSystem(mpeg.SystemConfig{Macroblocks: nMB, Budget: budget})
	if err != nil {
		return nil, err
	}
	rep := core.AnalyzeSmoothnessIterative(fs.Sys, fs.Iter)
	out := &SmoothnessResult{
		Macroblocks:   nMB,
		MaxDrop:       rep.MaxDrop,
		WorstPosition: rep.WorstPosition,
		WorstFrom:     rep.WorstFrom,
		WorstTo:       rep.WorstTo,
	}
	// Observe a heavy run.
	ctrl, err := core.NewController(fs.Sys, core.WithEvaluator(fs.Iter, fs.Iter.Order()))
	if err != nil {
		return nil, err
	}
	rng := platformRNG(seed)
	prev := core.Level(-1)
	_, err = ctrl.RunCycle(func(a core.ActionID, q core.Level) core.Cycles {
		if prev >= 0 && int(prev-q) > out.ObservedMaxDrop {
			out.ObservedMaxDrop = int(prev - q)
		}
		prev = q
		av := fs.Sys.Cav.At(q, a)
		wc := fs.Sys.Cwc.At(q, a)
		return av.AddSat(core.Cycles(0.9 * rng.Float64() * float64(wc.SubSat(av))))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UtilisationSummary extracts the budget-utilisation statistic the paper
// highlights (encoding time / P).
func UtilisationSummary(res *pipeline.Result) stats.Summary {
	p := float64(res.Config.Source.Period())
	util := make([]float64, 0, len(res.Records))
	for _, r := range res.Records {
		if !r.Skipped {
			util = append(util, float64(r.Encode)/p)
		}
	}
	return stats.Summarize(util)
}
