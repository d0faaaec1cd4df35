package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// spanName identifies what a span covers: the benchmark's own code
// (bench.*) or one call into a layer (<layer>.<call>).
type spanName uint8

const (
	spBenchSetup spanName = iota
	spBenchCycle
	spBenchWorkload
	spBenchDecide
	spBenchReplay
	spBenchFrame
	spBenchLint
	spCoreNewProgram
	spSessionReset
	spSessionRun
	spMixerRebalance
	spQosdClientEncode
	spQosdRoundTrip
	spQosdClientDecode
	spQosdServerDecode
	spQosdServerEncode
	spQosdAdmit
	spQosdRelease
	spPipelineRun
	spVideoFrame
	spMpegEncodeFrame
	spMpegEncodeFrameConst
	spMpegSetBudget
	spAnalysisLoad
	spAnalysisAnalyze
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spBenchSetup:           "bench.setup",
	spBenchCycle:           "bench.cycle",
	spBenchWorkload:        "bench.workload",
	spBenchDecide:          "bench.decide",
	spBenchReplay:          "bench.replay",
	spBenchFrame:           "bench.frame",
	spBenchLint:            "bench.lint",
	spCoreNewProgram:       "core.new_program",
	spSessionReset:         "session.reset",
	spSessionRun:           "session.run",
	spMixerRebalance:       "mixer.rebalance",
	spQosdClientEncode:     "qosd.client_encode",
	spQosdRoundTrip:        "qosd.round_trip",
	spQosdClientDecode:     "qosd.client_decode",
	spQosdServerDecode:     "qosd.server_decode",
	spQosdServerEncode:     "qosd.server_encode",
	spQosdAdmit:            "qosd.admit",
	spQosdRelease:          "qosd.release",
	spPipelineRun:          "pipeline.run",
	spVideoFrame:           "video.frame",
	spMpegEncodeFrame:      "mpeg.encode_frame",
	spMpegEncodeFrameConst: "mpeg.encode_frame_const",
	spMpegSetBudget:        "mpeg.set_budget",
	spAnalysisLoad:         "analysis.load",
	spAnalysisAnalyze:      "analysis.analyze",
}

// noParent marks a request's root span.
const noParent int32 = -1

// span is one timed interval. Spans of one request share req; parent
// indexes the enclosing span in the same log.
type span struct {
	req        int64
	start, end int64 // ns since the tracer's epoch
	parent     int32
	name       spanName
}

// tracer keeps spans in memory. It is not safe for concurrent use:
// concurrent workers each record into their own tracer (one shard)
// sharing an epoch, and merge combines the shards at the end.
type tracer struct {
	epoch time.Time
	spans []span
	// outers are the intervals the workload timed around requests with
	// its own clock reads, to check the root spans against.
	outers []outer
}

// outer is the interval a workload timed around the request whose root
// span is root, independently of that span's own clock reads.
type outer struct {
	root       int32
	start, end int64 // ns since the tracer's epoch
}

// spanCapacity bounds the spans one traced run keeps, so memory and the
// written trace stay small; workloads sample requests to fit.
const spanCapacity = 1 << 18

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity), outers: make([]outer, 0, capacity/2)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// room reports whether one more request of n spans fits without
// growing the log.
func (t *tracer) room(n int) bool {
	return cap(t.spans)-len(t.spans) >= n && len(t.outers) < cap(t.outers)
}

// begin opens a span and returns its index. A nil tracer records
// nothing.
func (t *tracer) begin(name spanName, parent int32, req int64) int32 {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, span{req: req, parent: parent, name: name, start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = t.now()
	}
}

// enclose records that the workload timed the request whose root span
// is root from start to end.
func (t *tracer) enclose(root int32, start, end time.Time) {
	if t != nil {
		t.outers = append(t.outers, outer{root: root, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	}
}

// merge appends the shards' spans to t, rebasing span indexes.
func (t *tracer) merge(shards ...*tracer) {
	for _, s := range shards {
		base := int32(len(t.spans))
		for _, sp := range s.spans {
			if sp.parent != noParent {
				sp.parent += base
			}
			t.spans = append(t.spans, sp)
		}
		for _, o := range s.outers {
			o.root += base
			t.outers = append(t.outers, o)
		}
	}
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	count     int64
	dur, self int64 // summed ns
	children  int64 // direct child spans
}

// minCoverage is the least share of the workload's own timings of
// requests that their root spans must cover, summed over the run. The
// rest is the clock reads and bookkeeping between the workload's reads
// and the root span's.
const minCoverage = 0.9

// summary is the span log reduced to per-name totals.
type summary struct {
	byName [numSpanNames]nameStat
	// violations counts broken structure: a span ending before it starts, a child outside its
	// parent or in another request, overlapping siblings, a request
	// without exactly one root, or a root span that is not inside the
	// interval the workload timed around it.
	violations int
	// coverage is the summed duration of the root spans the workload
	// timed, over the summed duration it measured for them; below
	// minCoverage it is a violation.
	coverage float64
}

// summarize computes every span's self time — its duration minus the
// part its direct children cover — and checks the log's structure.
// Children lie inside their parent and do not overlap, so the self
// times under a request sum to its root span's duration; the root span
// is checked against the workload's own timing of the request.
func (t *tracer) summarize() summary {
	var s summary
	self := make([]int64, len(t.spans))
	lastChildEnd := make([]int64, len(t.spans))
	for i, sp := range t.spans {
		d := sp.end - sp.start
		if d < 0 {
			s.violations++
		}
		self[i] += d
		if sp.parent == noParent {
			continue
		}
		// Spans are logged in start order, so a child that starts
		// before its previous sibling ended overlaps it.
		p := t.spans[sp.parent]
		if p.req != sp.req || sp.start < p.start || sp.end > p.end || sp.start < lastChildEnd[sp.parent] {
			s.violations++
		}
		lastChildEnd[sp.parent] = sp.end
		self[sp.parent] -= d
		s.byName[p.name].children++
	}
	roots := make(map[int64]int)
	for i, sp := range t.spans {
		if sp.parent == noParent {
			roots[sp.req]++
		} else if _, ok := roots[sp.req]; !ok {
			roots[sp.req] = 0
		}
		st := &s.byName[sp.name]
		st.count++
		st.dur += sp.end - sp.start
		st.self += self[i]
	}
	for _, n := range roots {
		if n != 1 {
			s.violations++
		}
	}
	var rootNs, outerNs int64
	for _, o := range t.outers {
		r := t.spans[o.root]
		if r.parent != noParent || r.start < o.start || r.end > o.end {
			s.violations++
		}
		rootNs += r.end - r.start
		outerNs += o.end - o.start
	}
	if outerNs > 0 {
		s.coverage = float64(rootNs) / float64(outerNs)
		if s.coverage < minCoverage {
			s.violations++
		}
	}
	return s
}

// meanDur is the mean duration of the named spans in ns.
func (s *summary) meanDur(n spanName) float64 {
	st := s.byName[n]
	if st.count == 0 {
		return 0
	}
	return float64(st.dur) / float64(st.count)
}

// meanSelf is the mean self time of the named spans in ns.
func (s *summary) meanSelf(n spanName) float64 {
	st := s.byName[n]
	if st.count == 0 {
		return 0
	}
	return float64(st.self) / float64(st.count)
}

// durations lists the named spans' durations in ns.
func (t *tracer) durations(n spanName) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.name == n {
			out = append(out, float64(sp.end-sp.start))
		}
	}
	return out
}

// spanRecord is one line of the written trace.
type spanRecord struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeFile writes the span log as JSON lines under .bench_build and
// returns the path.
func (t *tracer) writeFile(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		rec := spanRecord{Name: spanNames[sp.name], Req: sp.req, Parent: sp.parent, Start: sp.start, End: sp.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// clockNs measures what one span clock read costs: the median over
// batches of back-to-back reads. Every nested span adds about one such
// read to its parent's self time.
func clockNs(t *tracer) float64 {
	const batch = 1000
	per := make([]float64, 0, 31)
	for i := 0; i < 31; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			clockSink += t.now()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/batch)
	}
	return median(per)
}

// clockSink keeps clockNs's reads from being optimised away.
var clockSink int64

// runtimeSample reads the runtime counters the per-layer metrics use.
type runtimeSample struct {
	mutexWaitS float64 // /sync/mutex/wait/total:seconds
	allocBytes uint64  // /gc/heap/allocs:bytes
	allocObjs  uint64  // /gc/heap/allocs:objects
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(ms)
	var r runtimeSample
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		r.mutexWaitS = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		r.allocObjs = ms[2].Value.Uint64()
	}
	return r
}

// sampleEvery returns k such that recording every k-th of expected
// requests, each of spansPer spans, fills at most budget spans.
func sampleEvery(expected float64, spansPer, budget int) int {
	fit := budget / spansPer
	if fit < 1 {
		fit = 1
	}
	k := int(expected/float64(fit)) + 1
	if k < 1 {
		k = 1
	}
	return k
}
