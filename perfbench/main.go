// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload against the public functions of the library
// layers, checks that every output is correct, and prints the
// workload's metrics, ending with one JSON line:
//
//	go run . --workload fleet --seed 1 --seconds 10 --trace 0
//
// It must run from the module root (the directory holding go.mod and
// examples/); perfbench/run.py builds it and runs it from there.
//
// With --trace 0 the JSON line carries the end-to-end metrics listed in
// BENCHMARK.json. With --trace 1 the run is split into an untraced half
// and a traced half: spans recorded around every call into a layer give
// the per-layer metrics, and the difference between the halves is the
// tracing overhead. README.md maps every metric to its layer and
// workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
)

// modelPath is the MPEG-4 macroblock-body model the fleet and wire
// workloads serve, relative to the module root.
const modelPath = "examples/models/mpeg_body.qos"

// env is one invocation's settings.
type env struct {
	workload string
	seed     uint64
	window   time.Duration // how long the measured phase runs
	trace    bool
	inject   bool // deliberately break one operation to test the checks
}

// line is one named figure printed before the JSON result.
type line struct {
	name  string
	value float64
	unit  string
}

// result is what a workload run reports.
type result struct {
	attempted, failed int64
	// violations describe every failed correctness check.
	violations []string
	// End-to-end metrics, common to every workload.
	setupS, opsPerS, opP50us float64
	// named are the workload's own figures, printed by name.
	named []line
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// tr is the traced run's span log, written out at exit.
	tr *tracer
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string) {
	r.named = append(r.named, line{name, value, unit})
}

// endToEnd names the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []line{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "op_p50_us", unit: "us"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// perLayer names the per-layer metrics in BENCHMARK.json order. A
// traced run reports all of them; a layer the workload does not reach
// reads 0.
var perLayer = []line{
	{name: "core.decide_ns", unit: "ns"},
	{name: "core.probes_per_decision", unit: "count"},
	{name: "core.fallbacks_per_cycle", unit: "count"},
	{name: "core.ctrl_ns_per_decision", unit: "ns"},
	{name: "core.new_program_ms", unit: "ms"},
	{name: "pipeline.ctrl_frac_modelled", unit: "ratio"},
	{name: "session.reset_ns", unit: "ns"},
	{name: "session.allocs_per_cycle", unit: "count"},
	{name: "mixer.rebalance_us", unit: "us"},
	{name: "mixer.mutex_wait_ms", unit: "ms"},
	{name: "mixer.share_fraction", unit: "ratio"},
	{name: "qosd.client_encode_us", unit: "us"},
	{name: "qosd.round_trip_us", unit: "us"},
	{name: "qosd.client_decode_us", unit: "us"},
	{name: "qosd.handler_us", unit: "us"},
	{name: "qosd.server_decode_us", unit: "us"},
	{name: "qosd.server_encode_us", unit: "us"},
	{name: "qosd.control_us", unit: "us"},
	{name: "qosd.transport_us", unit: "us"},
	{name: "qosd.req_bytes_per_decision", unit: "B"},
	{name: "qosd.resp_bytes_per_decision", unit: "B"},
	{name: "qosd.alloc_bytes_per_decision", unit: "B"},
	{name: "qosd.admit_us", unit: "us"},
	{name: "qosd.release_us", unit: "us"},
	{name: "video.frame_us", unit: "us"},
	{name: "mpeg.encode_frame_ms", unit: "ms"},
	{name: "mpeg.encode_frame_const_ms", unit: "ms"},
	{name: "mpeg.set_budget_ns", unit: "ns"},
	{name: "pipeline.skips", unit: "count"},
	{name: "pipeline.display_stalls", unit: "count"},
	{name: "pipeline.max_occupancy", unit: "count"},
	{name: "pipeline.mean_level", unit: "level"},
	{name: "analysis.load_s", unit: "s"},
	{name: "analysis.analyze_ms", unit: "ms"},
	{name: "analysis.packages", unit: "count"},
	{name: "analysis.findings", unit: "count"},
	{name: "bench.workload_ns", unit: "ns"},
	{name: "bench.trace_overhead", unit: "ratio"},
	{name: "bench.clock_ns", unit: "ns"},
	{name: "bench.spans", unit: "count"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(env) (*result, error){
	"fleet":  runFleet,
	"wire":   runWire,
	"encode": runEncode,
	"lint":   runLint,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain parses argv, runs the workload and prints its result; the
// exit code is 0 only for a correct run.
func realMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: fleet, wire, encode or lint")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Int("seconds", 10, "length of the measured phase in seconds")
		trace    = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		inject   = fs.Bool("inject", false, "break one operation on purpose; the run must then fail")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	e := env{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		inject:   *inject,
	}
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		e.workload, e.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.add("peak_rss_mb", rss, "MiB")
	if res.tr != nil {
		path, err := res.tr.writeFile(e.workload, e.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s spans=%d\n", path, len(res.tr.spans))
	}
	for _, l := range res.named {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(stdout, "attempted %d failed %d\n", res.attempted, res.failed)
	for _, v := range res.violations {
		fmt.Fprintf(stdout, "VIOLATION %s\n", v)
	}

	for name := range res.layer {
		if !known(perLayer, name) {
			fmt.Fprintf(stderr, "perfbench: %s reports unknown per-layer metric %q\n", e.workload, name)
			return 1
		}
	}
	metrics := make(map[string]jsonMetric)
	if e.trace {
		for _, l := range perLayer {
			metrics[l.name] = jsonMetric{Value: res.layer[l.name], Unit: l.unit}
		}
	} else {
		values := map[string]float64{
			"setup_s": res.setupS, "ops_per_s": res.opsPerS, "op_p50_us": res.opP50us, "peak_rss_mb": rss,
		}
		for _, l := range endToEnd {
			metrics[l.name] = jsonMetric{Value: values[l.name], Unit: l.unit}
		}
	}
	correct := len(res.violations) == 0 && res.failed == 0 && res.attempted > 0
	out, err := json.Marshal(jsonResult{
		Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %s: incorrect run: %d of %d operations failed, %d violations\n",
			e.workload, res.failed, res.attempted, len(res.violations))
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkManifest fails unless the metrics BENCHMARK.json lists are
// exactly the ones this program reports, with the same units.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, c := range []struct {
		kind string
		want []line
		got  []manifestMetric
	}{{"end_to_end", endToEnd, m.EndToEnd}, {"per_layer", perLayer, m.PerLayer}} {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("%s lists %d %s metrics, the program reports %d", path, len(c.got), c.kind, len(c.want))
		}
		for i, w := range c.want {
			if c.got[i].Name != w.name || c.got[i].Unit != w.unit {
				return fmt.Errorf("%s %s[%d] is %s (%s), the program reports %s (%s)",
					path, c.kind, i, c.got[i].Name, c.got[i].Unit, w.name, w.unit)
			}
		}
	}
	return nil
}

func known(ls []line, name string) bool {
	for _, l := range ls {
		if l.name == name {
			return true
		}
	}
	return false
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// reservoir keeps a uniform sample of at most cap(buf) values from a
// stream of any length, so memory does not grow with throughput.
type reservoir struct {
	buf  []int64
	seen uint64
	rng  *platform.RNG
}

func newReservoir(n int, seed uint64) *reservoir {
	return &reservoir{buf: make([]int64, 0, n), rng: platform.NewRNG(seed)}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Next() % r.seen; j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

// latencySamples bounds the latency samples a run keeps.
const latencySamples = 1 << 18

// windowWidth is the length of the windows fleet and wire count their
// work in.
const windowWidth = 10 * time.Millisecond

// windowLatencies bounds the op latencies one window keeps: a seeded
// uniform sample, so memory does not grow with throughput.
const windowLatencies = 64

// windows counts completed work and samples op latencies per
// fixed-length window of a run. It is safe for concurrent use.
type windows struct {
	start  time.Time
	counts []atomic.Int64
	mu     sync.Mutex
	lats   []*reservoir
}

func newWindows(start time.Time, length time.Duration, seed uint64) *windows {
	n := int(length/windowWidth) + 2
	w := &windows{start: start, counts: make([]atomic.Int64, n), lats: make([]*reservoir, n)}
	for k := range w.lats {
		w.lats[k] = newReservoir(windowLatencies, seed+uint64(k))
	}
	return w
}

func (w *windows) index(t time.Time) int {
	if k := int(t.Sub(w.start) / windowWidth); k >= 0 && k < len(w.counts) {
		return k
	}
	return -1
}

// add counts n units of work completed at time t.
func (w *windows) add(t time.Time, n int64) {
	if k := w.index(t); k >= 0 {
		w.counts[k].Add(n)
	}
}

// latency samples an op of d that completed at time t.
func (w *windows) latency(t time.Time, d time.Duration) {
	if k := w.index(t); k >= 0 {
		w.mu.Lock()
		w.lats[k].add(int64(d))
		w.mu.Unlock()
	}
}

// stats returns the figures of each window that ended within elapsed
// of the start.
func (w *windows) stats(elapsed time.Duration) []windowStat {
	full := min(int(elapsed/windowWidth), len(w.counts))
	out := make([]windowStat, 0, full)
	for k := 0; k < full; k++ {
		out = append(out, windowStat{
			rate:  float64(w.counts[k].Load()) / windowWidth.Seconds(),
			p50us: percentileNs(w.lats[k].buf, 0.50),
		})
	}
	return out
}

// windowStat is what one window of a run did.
type windowStat struct {
	rate  float64 // units of work per second
	p50us float64 // median op latency in the window
}

// A shared host can run the same code far slower for seconds at a
// time while other tenants load the hardware it shares, with the
// process's CPU time keeping pace with the wall clock; README.md gives
// the figures measured. Even a busy stretch has moments in which the
// program runs undisturbed, and fleet's and wire's ops, microseconds
// long, fill many 10 ms windows in each of them. Their end-to-end
// figures are therefore read from a run's quiet windows: the
// quietWindows windows with the highest rates, 100 ms of the run.
const quietWindows = 10

// quiet returns the mean rate and the mean of the per-window median
// latencies over the quiet windows of ws. The selection has already
// cut off the disturbed windows, and a mean, unlike a median of whole
// nanoseconds, does not read the same on every run. ws is sorted in
// place.
func quiet(ws []windowStat) (rate, p50us float64) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].rate > ws[j].rate })
	n := min(quietWindows, len(ws))
	if n == 0 {
		return 0, 0
	}
	for _, w := range ws[:n] {
		rate += w.rate
		p50us += w.p50us
	}
	return rate / float64(n), p50us / float64(n)
}

// percentileNs returns the nearest-rank q-quantile of ns samples in
// microseconds; ns is sorted in place.
func percentileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	k := int(q*float64(len(ns))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(ns) {
		k = len(ns) - 1
	}
	return float64(ns[k]) / 1e3
}

// Set-up is repeated at least minSetups times, and on until
// setupBudget of set-up time has been spent or maxSetups runs were
// made; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 201
	setupBudget = 500 * time.Millisecond
)

// repeatSetup runs build repeatedly, timing each run, and returns the
// last value built with the median set-up time in seconds. Earlier
// values are passed to discard. Traced runs use it: their set-up spans
// give core.new_program_ms.
func repeatSetup[T any](build func(i int) (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		last = v
	}
	return last, median(times), nil
}

// An untraced run times set-up between slices of the measured phase,
// so a slow phase of the host weighs on setup_s as much as on the
// serving figures. Before each slice of setupEvery, set-up is built and
// discarded until setupSlice of set-up time has been spent (at least
// once, at most maxSetupsPerSlice times).
const (
	setupEvery        = time.Second
	setupSlice        = 50 * time.Millisecond
	maxSetupsPerSlice = 64
)

// interleave runs serve in slices of setupEvery until window has
// passed, timing set-ups (build, then discard) before each slice. The
// heap is collected before and after each burst of set-ups, so neither
// set-up nor serving pays for the other's garbage, and set-up garbage
// does not pile up in peak_rss_mb. The last slice may run past the
// window by one unit of serve's work. It returns the median set-up time
// in seconds.
func interleave[T any](window time.Duration, build func() (T, error), discard func(T), serve func(until time.Time) error) (float64, error) {
	end := time.Now().Add(window)
	var times []float64
	for first := true; first || time.Now().Before(end); first = false {
		var spent time.Duration
		runtime.GC()
		for k := 0; k == 0 || (spent < setupSlice && k < maxSetupsPerSlice); k++ {
			start := time.Now()
			v, err := build()
			if err != nil {
				return 0, err
			}
			d := time.Since(start)
			discard(v)
			spent += d
			times = append(times, d.Seconds())
		}
		runtime.GC()
		now := time.Now()
		if !first && !now.Before(end) {
			break
		}
		until := now.Add(setupEvery)
		if until.After(end) {
			until = end
		}
		if err := serve(until); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}
