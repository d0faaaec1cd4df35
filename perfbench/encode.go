package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/pipeline"
	"repro/internal/video"
)

// The encode workload is the paper's MPEG-4 case study: pipeline.Run
// with the fine-grain controlled encoder and an input buffer of one
// frame (figure 6). The seed picks the source's content and the
// encoder's noise.

// constQ is the constant-quality level the traced run replays frames
// at to isolate the controller's own time.
const constQ core.Level = 3

// newEncodeSetup builds the source and a controlled encoder the way
// pipeline.Run builds it: the encode workload's set-up. tr, when
// non-nil, records it as request req, with the encoder's core.Program
// built once more on its own.
func newEncodeSetup(seed uint64, tr *tracer, req int64) (*video.Source, error) {
	root := tr.begin(spBenchSetup, noParent, req)
	defer tr.end(root)
	cfg := encodeVideo(seed)
	src, err := video.NewSource(cfg)
	if err != nil {
		return nil, err
	}
	enc, err := mpeg.NewControlled(cfg.Macroblocks, cfg.Period, seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		i := tr.begin(spCoreNewProgram, root, req)
		_, err = core.NewProgram(enc.FS.Sys, core.WithEvaluator(enc.FS.Iter, enc.FS.Iter.Order()))
		tr.end(i)
	}
	return src, err
}

// encodeVideo is the source one clip encodes: video.DefaultConfig made
// a third as long, so 194 frames in 3 sequences of the default loads,
// the third being the first of the two overload sequences. A clip
// takes well under a second on a 2-vCPU host, so a run makes dozens
// and the median clip rests on many.
func encodeVideo(seed uint64) video.Config {
	cfg := video.DefaultConfig()
	cfg.Frames /= 3
	cfg.Sequences /= 3
	cfg.Seed = seed
	return cfg
}

// encodeConfig is the figure 6 pipeline over src.
func encodeConfig(src *video.Source, seed uint64, inject bool) pipeline.Config {
	cfg := pipeline.Config{Source: src, K: 1, Controlled: true, Seed: seed}
	if inject {
		// The constant-quality baseline at q3 overloads the heavy
		// sequences and skips frames: the check must catch it.
		cfg.Controlled, cfg.ConstQ = false, constQ
	}
	return cfg
}

// clips runs pipeline.Run until the deadline (at least once) and
// returns every result with its wall time.
func clips(cfg pipeline.Config, until time.Time, tr *tracer, reqBase int64) ([]*pipeline.Result, []float64, error) {
	var out []*pipeline.Result
	var secs []float64
	for k := int64(0); len(out) == 0 || time.Now().Before(until); k++ {
		// Start every clip from a collected heap, so clips do not pay
		// for each other's garbage.
		runtime.GC()
		start := time.Now()
		i := tr.begin(spPipelineRun, noParent, reqBase+k)
		r, err := pipeline.Run(cfg)
		tr.end(i)
		done := time.Now()
		tr.enclose(i, start, done)
		secs = append(secs, done.Sub(start).Seconds())
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r)
	}
	return out, secs, nil
}

// checkClip counts a clip's frames and its failures: skipped frames and
// frames with a deadline miss.
func checkClip(res *result, r *pipeline.Result, want *pipeline.Result) {
	res.attempted += int64(len(r.Records))
	bad := 0
	for _, rec := range r.Records {
		if rec.Skipped || rec.Misses > 0 {
			bad++
		}
	}
	if bad > 0 {
		res.failed += int64(bad)
		res.violate("encode: %d of %d frames skipped or late (%d skips, %d misses)", bad, len(r.Records), r.Skips, r.Misses)
	}
	if want != nil && (meanPSNR(r) != meanPSNR(want) || r.TotalCycles != want.TotalCycles) {
		res.violate("encode: clip is not deterministic: PSNR %.6f vs %.6f", meanPSNR(r), meanPSNR(want))
	}
}

func meanPSNR(r *pipeline.Result) float64 {
	var sum float64
	n := 0
	for _, rec := range r.Records {
		if !rec.Skipped {
			sum += rec.PSNR
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func meanLevel(r *pipeline.Result) float64 {
	var sum float64
	n := 0
	for _, rec := range r.Records {
		if !rec.Skipped {
			sum += rec.MeanLevel
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// encodeFrames counts the frames of rs.
func encodeFrames(rs []*pipeline.Result) (n int) {
	for _, r := range rs {
		n += len(r.Records)
	}
	return n
}

// recordClips checks every clip against the first and returns frames
// per second of clip time.
func recordClips(res *result, rs []*pipeline.Result, secs []float64) float64 {
	for _, r := range rs {
		checkClip(res, r, rs[0])
	}
	var total float64
	for _, x := range secs {
		total += x
	}
	return float64(encodeFrames(rs)) / total
}

func runEncode(e env) (*result, error) {
	if !e.trace {
		return runEncodeUntraced(e)
	}
	tr := newTracer(time.Now(), spanCapacity)
	src, _, err := repeatSetup(func(i int) (*video.Source, error) {
		return newEncodeSetup(e.seed, tr, int64(-1-i))
	}, func(*video.Source) {})
	if err != nil {
		return nil, err
	}
	cfg := encodeConfig(src, e.seed, e.inject)
	res := &result{}

	// Traced run: untraced clips, then traced clips, then a frame-by-
	// frame replay of the last traced clip through the layers below
	// pipeline.Run.
	half := e.window / 2
	ra, secsA, err := clips(cfg, time.Now().Add(half), nil, 0)
	if err != nil {
		return nil, err
	}
	fpsA := recordClips(res, ra, secsA)
	rb, secsB, err := clips(cfg, time.Now().Add(half), tr, 1<<40)
	if err != nil {
		return nil, err
	}
	fpsB := recordClips(res, rb, secsB)
	last := rb[len(rb)-1]
	rp, err := replayFrames(e.seed, src, last, tr)
	if err != nil {
		return nil, err
	}
	if rp.mismatches > 0 {
		res.violate("encode: %d replayed frames differ from pipeline.Run's", rp.mismatches)
	}
	setBudgetNs, err := replaySetBudget(e.seed, src, last, tr)
	if err != nil {
		return nil, err
	}

	sum := tr.summarize()
	if sum.violations > 0 {
		res.violate("encode trace: %d span structure violations", sum.violations)
	}
	ctrl := sum.byName[spMpegEncodeFrame].dur
	konst := sum.byName[spMpegEncodeFrameConst].dur
	res.layer = map[string]float64{
		"core.ctrl_ns_per_decision":   float64(ctrl-konst) / float64(rp.decisions),
		"core.probes_per_decision":    float64(rp.probes) / float64(rp.decisions),
		"core.fallbacks_per_cycle":    float64(rp.fallbacks) / float64(rp.frames),
		"core.new_program_ms":         median(tr.durations(spCoreNewProgram)) / 1e6,
		"pipeline.ctrl_frac_modelled": last.MeanCtrlFrac,
		"video.frame_us":              sum.meanDur(spVideoFrame) / 1e3,
		"mpeg.encode_frame_ms":        sum.meanDur(spMpegEncodeFrame) / 1e6,
		"mpeg.encode_frame_const_ms":  sum.meanDur(spMpegEncodeFrameConst) / 1e6,
		"mpeg.set_budget_ns":          setBudgetNs,
		"pipeline.skips":              float64(last.Skips),
		"pipeline.display_stalls":     float64(last.DisplayStalls),
		"pipeline.max_occupancy":      float64(last.MaxOccupancy),
		"pipeline.mean_level":         meanLevel(last),
		"bench.trace_overhead":        fpsA/fpsB - 1,
		"bench.clock_ns":              clockNs(tr),
		"bench.spans":                 float64(len(tr.spans)),
	}
	res.opsPerS = fpsA
	res.add("frames_per_s", fpsA, "1/s")
	res.add("traced_frames_per_s", fpsB, "1/s")
	res.add("psnr_db", meanPSNR(last), "dB")
	res.add("trace_root_coverage", sum.coverage, "ratio")
	res.tr = tr
	return res, nil
}

// runEncodeUntraced runs clips for the run's window, timing set-up
// between slices of it.
func runEncodeUntraced(e env) (*result, error) {
	src, err := newEncodeSetup(e.seed, nil, 0)
	if err != nil {
		return nil, err
	}
	cfg := encodeConfig(src, e.seed, e.inject)
	var rs []*pipeline.Result
	var secs []float64
	setupS, err := interleave(e.window,
		func() (*video.Source, error) { return newEncodeSetup(e.seed, nil, 0) },
		func(*video.Source) {},
		func(until time.Time) error {
			r, s, err := clips(cfg, until, nil, int64(len(rs)))
			rs, secs = append(rs, r...), append(secs, s...)
			return err
		})
	if err != nil {
		return nil, err
	}
	res := &result{setupS: setupS}
	res.opsPerS = recordClips(res, rs, secs)
	res.opP50us = median(secs) * 1e6
	res.add("setup_s", setupS, "s")
	res.add("frames_per_s", res.opsPerS, "1/s")
	res.add("clip_p50_us", res.opP50us, "us")
	res.add("psnr_db", meanPSNR(rs[0]), "dB")
	res.add("clips", float64(len(rs)), "count")
	return res, nil
}

// frameReplay tallies the frame-by-frame replay.
type frameReplay struct {
	frames, decisions, probes, fallbacks int64
	mismatches                           int
}

// replayFrames re-encodes every frame pipeline.Run encoded, with the
// budget it had there, as one request per frame: Source.Frame, the
// controlled EncodeFrame, and the constant-q3 EncodeFrameAt on the same
// frame. The encoders are deterministic, so the controlled replay must
// reproduce the pipeline's per-frame outcome.
func replayFrames(seed uint64, src *video.Source, r *pipeline.Result, tr *tracer) (frameReplay, error) {
	var rp frameReplay
	cfg := src.Config()
	ctrlEnc, err := mpeg.NewControlled(cfg.Macroblocks, cfg.Period, seed)
	if err != nil {
		return rp, err
	}
	constEnc, err := mpeg.NewConstant(cfg.Macroblocks, constQ, cfg.Period, seed)
	if err != nil {
		return rp, err
	}
	for _, rec := range r.Records {
		if rec.Skipped || !tr.room(4) {
			continue
		}
		req := int64(2)<<40 | int64(rec.Index)
		start := time.Now()
		root := tr.begin(spBenchFrame, noParent, req)
		i := tr.begin(spVideoFrame, root, req)
		f := src.Frame(rec.Index)
		tr.end(i)
		i = tr.begin(spMpegEncodeFrame, root, req)
		got, err := ctrlEnc.EncodeFrame(&f, rec.Budget)
		tr.end(i)
		if err != nil {
			tr.end(root)
			return rp, fmt.Errorf("replaying frame %d: %w", rec.Index, err)
		}
		i = tr.begin(spMpegEncodeFrameConst, root, req)
		_, err = constEnc.EncodeFrameAt(&f, rec.Budget, constQ)
		tr.end(i)
		tr.end(root)
		tr.enclose(root, start, time.Now())
		if err != nil {
			return rp, fmt.Errorf("replaying frame %d at q%d: %w", rec.Index, constQ, err)
		}
		st := ctrlEnc.Sess.Stats()
		rp.frames++
		rp.decisions += int64(st.Decisions)
		rp.probes += int64(st.CandidateEval)
		rp.fallbacks += int64(st.Fallbacks)
		if got.Elapsed != rec.Encode || got.MeanLevel != rec.MeanLevel || got.Misses != rec.Misses {
			rp.mismatches++
		}
	}
	return rp, nil
}

// replaySetBudget replays the clip's recorded frame budgets through
// FrameSystem.SetBudget on a separate controlled encoder and returns ns
// per call. The calls are far shorter than a clock read, so one span
// covers each pass over all budgets.
func replaySetBudget(seed uint64, src *video.Source, r *pipeline.Result, tr *tracer) (float64, error) {
	cfg := src.Config()
	enc, err := mpeg.NewControlled(cfg.Macroblocks, cfg.Period, seed)
	if err != nil {
		return 0, err
	}
	var budgets []core.Cycles
	for _, rec := range r.Records {
		if !rec.Skipped {
			budgets = append(budgets, rec.Budget)
		}
	}
	const passes = 50
	ctrl := enc.Sess.Controller()
	for p := int64(0); p < passes; p++ {
		req := int64(3)<<40 | p
		root := tr.begin(spBenchReplay, noParent, req)
		i := tr.begin(spMpegSetBudget, root, req)
		for _, b := range budgets {
			if err := enc.FS.SetBudget(b, ctrl); err != nil {
				return 0, err
			}
		}
		tr.end(i)
		tr.end(root)
	}
	d := tr.durations(spMpegSetBudget)
	return median(d) / float64(len(budgets)), nil
}
