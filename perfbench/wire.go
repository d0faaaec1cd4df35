package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/qosd"
	"repro/internal/qosd/api"
)

// The wire workload serves the model through qosd over loopback HTTP,
// built as cmd/qosd builds it by default: auto-sized budget, lease 4,
// 500 ms epoch, 250 ms admit timeout, reaper running. One client
// connection per CPU (at most one per stream of admission headroom)
// runs a closed loop: admit a batch of streams, drive them through
// wireCycles decide batches with seeded per-item loads, release them,
// repeat.
const (
	wireModel        = "mpeg_body"
	wireLease        = 4
	wireEpoch        = 500 * time.Millisecond
	wireAdmitTimeout = 250 * time.Millisecond
	// wireCycles is the decide batches per admitted batch: the default
	// of examples/qosdclient (-cycles 8), the repository's reference
	// client, which drives every admitted stream one cycle per batch.
	wireCycles = 8
	// wireTable is the length of each connection's pre-generated load
	// table.
	wireTable = 4096
	// wireCaptures is how many traced decide exchanges are kept for
	// the server-side codec replay.
	wireCaptures = 64
)

// daemon is a qosd instance serving on a loopback listener.
type daemon struct {
	d      *qosd.Daemon
	srv    *http.Server
	url    string
	client *http.Client // set-up, capacity and /metrics requests
	wg     sync.WaitGroup
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// startDaemon builds and starts the daemon and admits (then releases)
// one stream: the wire workload's set-up. tr, when non-nil, records it
// as request req.
func startDaemon(tr *tracer, req int64) (*daemon, error) {
	root := tr.begin(spBenchSetup, noParent, req)
	defer tr.end(root)
	d, err := qosd.New(qosd.Config{
		Models:        []qosd.ModelFile{{Name: wireModel, Path: modelPath}},
		LeaseEpochs:   wireLease,
		EpochInterval: wireEpoch,
		AdmitTimeout:  wireAdmitTimeout,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dm := &daemon{
		d:      d,
		srv:    &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: newClient(),
	}
	dm.wg.Add(1)
	go func() {
		defer dm.wg.Done()
		_ = dm.srv.Serve(ln)
	}()
	d.StartReaper()
	var ar api.AdmitResponse
	code, err := postJSON(dm.client, dm.url+"/v1/admit", api.AdmitRequest{Streams: 1}, &ar)
	if err == nil && (code != http.StatusOK || len(ar.Streams) != 1) {
		err = fmt.Errorf("first admit: HTTP %d", code)
	}
	if err == nil {
		var rr api.ReleaseResponse
		code, err = postJSON(dm.client, dm.url+"/v1/release", api.ReleaseRequest{Stream: ar.Streams[0].ID}, &rr)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("first release: HTTP %d", code)
		}
	}
	if err != nil {
		dm.close()
		return nil, err
	}
	return dm, nil
}

// close shuts the listener, drains the daemon (joining its reaper) and
// waits for the serve goroutine.
func (dm *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = dm.srv.Shutdown(ctx)
	dm.d.Drain()
	dm.wg.Wait()
	dm.client.CloseIdleConnections()
}

// postJSON posts v and decodes a 200 reply into out, returning the
// status code.
func postJSON(c *http.Client, url string, v, out any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads the daemon's /metrics into series → value.
func (dm *daemon) scrape() (map[string]float64, error) {
	resp, err := dm.client.Get(dm.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		l := sc.Text()
		if strings.HasPrefix(l, "#") {
			continue
		}
		k := strings.LastIndexByte(l, ' ')
		if k < 0 {
			continue
		}
		v, err := strconv.ParseFloat(l[k+1:], 64)
		if err == nil {
			out[l[:k]] = v
		}
	}
	return out, sc.Err()
}

// capture is one traced decide exchange kept for the codec replay.
type capture struct {
	body []byte
	resp api.DecideResponse
}

// wireConn is one client connection's closed loop and its tallies.
type wireConn struct {
	id     int
	url    string
	client *http.Client
	batch  int // streams per admit
	loads  []float64
	inject bool

	tr    *tracer // this connection's shard; nil when untraced
	every int64   // trace every every-th decide batch

	requests, items, failed int64
	admits                  int64
	decisions, fallbacks    int64
	levelSum, shareSum      float64
	admitted                int64
	reqBytes, respBytes     int64
	decideLat, admitLat     *reservoir
	win                     *windows // decisions and decide latencies per window of the current slice
	captures                []capture
	errs                    []string
	n                       int64 // decide batches sent
	nOther                  int64 // admit and release requests sent
	li                      int   // next load index
}

func (c *wireConn) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("conn %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// sampled returns the tracer to record a request of n spans with, or
// nil when this request is not traced.
func (c *wireConn) sampled(n int) *tracer {
	if c.tr != nil && c.tr.room(n) {
		return c.tr
	}
	return nil
}

// loop runs admit → decide batches → release cycles until the deadline.
func (c *wireConn) loop(until time.Time) {
	req := api.DecideRequest{Items: make([]api.DecideItem, c.batch)}
	for time.Now().Before(until) {
		ids, actions, ok := c.admit()
		if !ok {
			return // a refused admit would only repeat; the run is already failed
		}
		for j := 0; j < wireCycles; j++ {
			for k := range req.Items {
				req.Items[k] = api.DecideItem{Stream: ids[k], Load: c.loads[c.li%len(c.loads)]}
				c.li++
			}
			if c.inject {
				// Every action of one item overruns its whole period:
				// the daemon must report misses.
				c.inject = false
				req.Items[0].Costs = make([]int64, actions)
				for a := range req.Items[0].Costs {
					req.Items[0].Costs[a] = 1 << 40
				}
			}
			c.decide(&req, int64(actions))
		}
		for _, id := range ids {
			c.release(id)
		}
	}
}

// reqID makes a request id unique across connections; decide batches
// and admit/release requests count separately.
func (c *wireConn) reqID(decide bool) int64 {
	if decide {
		c.n++
		return int64(c.id)<<48 | 1<<40 | c.n
	}
	c.nOther++
	return int64(c.id)<<48 | c.nOther
}

func (c *wireConn) admit() ([]uint64, int, bool) {
	t := c.sampled(1)
	start := time.Now()
	i := t.begin(spQosdAdmit, noParent, c.reqID(false))
	var ar api.AdmitResponse
	code, err := postJSON(c.client, c.url+"/v1/admit", api.AdmitRequest{Model: wireModel, Streams: c.batch}, &ar)
	t.end(i)
	done := time.Now()
	t.enclose(i, start, done)
	c.admitLat.add(int64(done.Sub(start)))
	c.requests++
	c.admits++
	if err != nil || code != http.StatusOK || len(ar.Streams) != c.batch {
		c.fail("admit of %d streams: HTTP %d, %d admitted, err %v", c.batch, code, len(ar.Streams), err)
		return nil, 0, false
	}
	ids := make([]uint64, len(ar.Streams))
	for k, s := range ar.Streams {
		ids[k] = s.ID
		c.shareSum += float64(s.Share) / float64(s.Nominal)
	}
	c.admitted += int64(len(ids))
	return ids, ar.Streams[0].Actions, true
}

func (c *wireConn) release(id uint64) {
	t := c.sampled(1)
	start := time.Now()
	i := t.begin(spQosdRelease, noParent, c.reqID(false))
	var rr api.ReleaseResponse
	code, err := postJSON(c.client, c.url+"/v1/release", api.ReleaseRequest{Stream: id}, &rr)
	t.end(i)
	t.enclose(i, start, time.Now())
	c.requests++
	if err != nil || code != http.StatusOK || !rr.Released {
		c.fail("release of stream %d: HTTP %d, err %v", id, code, err)
	}
}

// decide sends one decide batch: client encode, POST, client decode.
func (c *wireConn) decide(req *api.DecideRequest, actions int64) {
	var t *tracer
	if c.n%c.every == 0 {
		t = c.sampled(4)
	}
	rid := c.reqID(true)
	start := time.Now()
	root := t.begin(spBenchDecide, noParent, rid)
	i := t.begin(spQosdClientEncode, root, rid)
	body, err := json.Marshal(req)
	t.end(i)
	if err != nil {
		t.end(root)
		c.fail("encoding decide batch: %v", err)
		return
	}
	i = t.begin(spQosdRoundTrip, root, rid)
	var data []byte
	code := 0
	resp, err := c.client.Post(c.url+"/v1/decide", "application/json", bytes.NewReader(body))
	if err == nil {
		code = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t.end(i)
	var dr api.DecideResponse
	if err == nil && code == http.StatusOK {
		i = t.begin(spQosdClientDecode, root, rid)
		err = json.Unmarshal(data, &dr)
		t.end(i)
	}
	t.end(root)
	done := time.Now()
	t.enclose(root, start, done)
	c.decideLat.add(int64(done.Sub(start)))
	c.win.latency(done, done.Sub(start))
	c.requests++
	c.items += int64(len(req.Items))
	c.reqBytes += int64(len(body))
	c.respBytes += int64(len(data))
	if err != nil || code != http.StatusOK || len(dr.Results) != len(req.Items) {
		c.fail("decide batch: HTTP %d, %d results, err %v", code, len(dr.Results), err)
		return
	}
	for _, r := range dr.Results {
		if r.Code != api.DecideOK || r.Misses > 0 {
			c.fail("decide item for stream %d: code %d, %d misses %s", r.Stream, r.Code, r.Misses, r.Error)
			continue
		}
		c.win.add(done, actions)
		c.decisions += actions
		c.fallbacks += int64(r.Fallbacks)
		c.levelSum += r.MeanLevel
	}
	if t != nil && len(c.captures) < wireCaptures {
		c.captures = append(c.captures, capture{body: body, resp: dr})
	}
}

// wirePhase is the merged tally of all connections over one phase,
// which may be run in several slices.
type wirePhase struct {
	conns []*wireConn
	wall  time.Duration
	wins  []windowStat // every full window
}

// sum adds f over the phase's connections.
func sum[T int64 | float64](p *wirePhase, f func(*wireConn) T) T {
	var s T
	for _, c := range p.conns {
		s += f(c)
	}
	return s
}

func (p *wirePhase) lat(f func(*wireConn) *reservoir) []int64 {
	var out []int64
	for _, c := range p.conns {
		out = append(out, f(c).buf...)
	}
	return out
}

func (p *wirePhase) decisions() int64 { return sum(p, func(c *wireConn) int64 { return c.decisions }) }

// run runs every connection's closed loop until the deadline.
func (p *wirePhase) run(until time.Time) {
	var wg sync.WaitGroup
	start := time.Now()
	win := newWindows(start, until.Sub(start), uint64(len(p.wins)))
	for _, c := range p.conns {
		c.win = win
		wg.Add(1)
		go func(c *wireConn) {
			defer wg.Done()
			c.loop(until)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	p.wall += elapsed
	p.wins = append(p.wins, win.stats(elapsed)...)
}

// newConns builds the connections for one phase; their inputs come
// from the seed and the phase number. With main non-nil each
// connection records into its own shard of shardCap spans on main's
// epoch, tracing every every-th decide batch.
func newConns(e env, url string, n, batch int, phase uint64, main *tracer, shardCap int, every int64) *wirePhase {
	conns := make([]*wireConn, n)
	for k := range conns {
		rng := platform.NewRNG(e.seed*1_000_003 + phase*101 + uint64(k))
		c := &wireConn{
			id: k, url: url, client: newClient(), batch: batch, every: every,
			loads:     make([]float64, wireTable),
			decideLat: newReservoir(latencySamples/n, e.seed+uint64(k)),
			admitLat:  newReservoir(latencySamples/n, e.seed+uint64(k)+1<<32),
			inject:    e.inject && k == 0 && phase == 0,
		}
		for i := range c.loads {
			c.loads[i] = rng.Float64()
		}
		if main != nil {
			c.tr = newTracer(main.epoch, shardCap)
		}
		conns[k] = c
	}
	return &wirePhase{conns: conns}
}

func (p *wirePhase) close() {
	for _, c := range p.conns {
		c.client.CloseIdleConnections()
	}
}

// wireShape reads the admission headroom from /v1/capacity and sizes
// the connections and their batches from it, so no admit ever queues
// behind another connection's streams.
func wireShape(dm *daemon) (nConns, batch int, err error) {
	var capResp api.CapacityResponse
	if err := getJSON(dm.client, dm.url+"/v1/capacity?model="+wireModel, &capResp); err != nil {
		return 0, 0, err
	}
	if len(capResp.Models) != 1 {
		return 0, 0, fmt.Errorf("capacity: %d models", len(capResp.Models))
	}
	headroom := capResp.Models[0].Headroom
	nConns = min(runtime.NumCPU(), headroom)
	if nConns < 1 {
		return 0, 0, fmt.Errorf("capacity headroom %d admits no stream", headroom)
	}
	return nConns, headroom / nConns, nil
}

// recordWire counts a phase's requests, items and failures.
func recordWire(res *result, p *wirePhase) {
	res.attempted += sum(p, func(c *wireConn) int64 { return c.requests + c.items })
	res.failed += sum(p, func(c *wireConn) int64 { return c.failed })
	for _, c := range p.conns {
		for _, m := range c.errs {
			res.violate("wire: %s", m)
		}
	}
}

func wireRate(p *wirePhase) float64 { return float64(p.decisions()) / p.wall.Seconds() }

func runWire(e env) (*result, error) {
	if !e.trace {
		return runWireUntraced(e)
	}
	tr := newTracer(time.Now(), spanCapacity)
	dm, _, err := repeatSetup(func(i int) (*daemon, error) {
		return startDaemon(tr, int64(-1-i))
	}, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer dm.close()
	nConns, batch, err := wireShape(dm)
	if err != nil {
		return nil, err
	}
	res := &result{}

	// An untraced half, then a traced half. The daemon's own counters
	// are scraped, and the runtime's read, just around the traced half,
	// after its connections and span shards are built.
	half := e.window / 2
	a := newConns(e, dm.url, nConns, batch, 0, nil, 0, 1)
	a.run(time.Now().Add(half))
	a.close()
	recordWire(res, a)
	shardCap := spanCapacity * 3 / 4 / nConns
	perConn := float64(sum(a, func(c *wireConn) int64 { return c.n })) / float64(nConns) / a.wall.Seconds() * half.Seconds()
	every := int64(sampleEvery(perConn, 4, shardCap*3/4))
	b := newConns(e, dm.url, nConns, batch, 1, tr, shardCap, every)
	m1, err := dm.scrape()
	if err != nil {
		return nil, err
	}
	r1 := readRuntime()
	b.run(time.Now().Add(half))
	r2 := readRuntime()
	b.close()
	recordWire(res, b)
	m2, err := dm.scrape()
	if err != nil {
		return nil, err
	}
	for _, c := range b.conns {
		tr.merge(c.tr)
	}

	// Replay the server's codec work on captured exchanges, as the
	// handlers do it: json.Decoder on the request body, json.Encoder on
	// the response.
	var caps []capture
	for _, c := range b.conns {
		caps = append(caps, c.captures...)
	}
	const replayPasses = 20
	for pass := 0; pass < replayPasses && len(caps) > 0; pass++ {
		for k, cp := range caps {
			if !tr.room(3) {
				break
			}
			rid := int64(4)<<40 | int64(pass*len(caps)+k)
			root := tr.begin(spBenchReplay, noParent, rid)
			i := tr.begin(spQosdServerDecode, root, rid)
			var dreq api.DecideRequest
			err := json.NewDecoder(bytes.NewReader(cp.body)).Decode(&dreq)
			tr.end(i)
			i = tr.begin(spQosdServerEncode, root, rid)
			if err == nil {
				err = json.NewEncoder(io.Discard).Encode(cp.resp)
			}
			tr.end(i)
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("codec replay: %w", err)
			}
		}
	}

	spans := tr.summarize()
	if spans.violations > 0 {
		res.violate("wire trace: %d span structure violations", spans.violations)
	}
	const dSum = `qosd_http_request_duration_seconds_sum{endpoint="decide"}`
	const dCount = `qosd_http_request_duration_seconds_count{endpoint="decide"}`
	evals := `qosd_controller_candidate_evals_total{model="` + wireModel + `"}`
	decs := `qosd_controller_decisions_total{model="` + wireModel + `"}`
	handlerUs := 0.0
	if n := m2[dCount] - m1[dCount]; n > 0 {
		handlerUs = (m2[dSum] - m1[dSum]) / n * 1e6
	}
	probes := 0.0
	if n := m2[decs] - m1[decs]; n > 0 {
		probes = (m2[evals] - m1[evals]) / n
	}
	decB := float64(b.decisions())
	itemsB := float64(sum(b, func(c *wireConn) int64 { return c.items }))
	roundTripUs := spans.meanDur(spQosdRoundTrip) / 1e3
	serverDecodeUs := spans.meanDur(spQosdServerDecode) / 1e3
	serverEncodeUs := spans.meanDur(spQosdServerEncode) / 1e3
	res.layer = map[string]float64{
		"core.probes_per_decision":      probes,
		"core.fallbacks_per_cycle":      float64(sum(b, func(c *wireConn) int64 { return c.fallbacks })) / itemsB,
		"mixer.mutex_wait_ms":           (r2.mutexWaitS - r1.mutexWaitS) * 1e3,
		"mixer.share_fraction":          sum(b, func(c *wireConn) float64 { return c.shareSum }) / float64(sum(b, func(c *wireConn) int64 { return c.admitted })),
		"qosd.client_encode_us":         spans.meanDur(spQosdClientEncode) / 1e3,
		"qosd.round_trip_us":            roundTripUs,
		"qosd.client_decode_us":         spans.meanDur(spQosdClientDecode) / 1e3,
		"qosd.handler_us":               handlerUs,
		"qosd.server_decode_us":         serverDecodeUs,
		"qosd.server_encode_us":         serverEncodeUs,
		"qosd.control_us":               handlerUs - serverDecodeUs - serverEncodeUs,
		"qosd.transport_us":             roundTripUs - handlerUs,
		"qosd.req_bytes_per_decision":   float64(sum(b, func(c *wireConn) int64 { return c.reqBytes })) / decB,
		"qosd.resp_bytes_per_decision":  float64(sum(b, func(c *wireConn) int64 { return c.respBytes })) / decB,
		"qosd.alloc_bytes_per_decision": float64(r2.allocBytes-r1.allocBytes) / decB,
		"qosd.admit_us":                 spans.meanDur(spQosdAdmit) / 1e3,
		"qosd.release_us":               spans.meanDur(spQosdRelease) / 1e3,
		"bench.trace_overhead":          wireRate(a)/wireRate(b) - 1,
		"bench.clock_ns":                clockNs(tr),
		"bench.spans":                   float64(len(tr.spans)),
	}
	res.opsPerS, _ = quiet(a.wins)
	res.add("decisions_per_s", res.opsPerS, "1/s")
	res.add("traced_decisions_per_s", wireRate(b), "1/s")
	res.add("trace_sample_every_batches", float64(every), "count")
	res.add("trace_root_coverage", spans.coverage, "ratio")
	res.tr = tr
	return res, nil
}

// runWireUntraced drives the daemon for the run's window, timing
// set-up (a second daemon, started and closed) between slices of it.
func runWireUntraced(e env) (*result, error) {
	dm, err := startDaemon(nil, 0)
	if err != nil {
		return nil, err
	}
	defer dm.close()
	nConns, batch, err := wireShape(dm)
	if err != nil {
		return nil, err
	}
	p := newConns(e, dm.url, nConns, batch, 0, nil, 0, 1)
	defer p.close()
	setupS, err := interleave(e.window,
		func() (*daemon, error) { return startDaemon(nil, 0) },
		(*daemon).close,
		func(until time.Time) error {
			p.run(until)
			return nil
		})
	if err != nil {
		return nil, err
	}
	res := &result{setupS: setupS}
	recordWire(res, p)
	items := sum(p, func(c *wireConn) int64 { return c.items })
	requests := sum(p, func(c *wireConn) int64 { return c.requests })
	decideLat := p.lat(func(c *wireConn) *reservoir { return c.decideLat })
	admitLat := p.lat(func(c *wireConn) *reservoir { return c.admitLat })
	nWins := len(p.wins)
	res.opsPerS, res.opP50us = quiet(p.wins)
	res.add("setup_s", setupS, "s")
	res.add("connections", float64(nConns), "count")
	res.add("streams_per_admit", float64(batch), "count")
	res.add("admit_share", float64(sum(p, func(c *wireConn) int64 { return c.admits }))/float64(requests), "ratio")
	res.add("decisions_per_s", res.opsPerS, "1/s")
	res.add("decisions_per_s_mean", wireRate(p), "1/s")
	res.add("decide_p50_us", res.opP50us, "us")
	res.add("decide_p50_us_all", percentileNs(decideLat, 0.50), "us")
	res.add("decide_p99_us", percentileNs(decideLat, 0.99), "us")
	res.add("admit_p99_us", percentileNs(admitLat, 0.99), "us")
	res.add("mean_level", sum(p, func(c *wireConn) float64 { return c.levelSum })/float64(items), "level")
	res.add("decide_samples", float64(len(decideLat)), "count")
	res.add("admit_samples", float64(len(admitLat)), "count")
	res.add("windows", float64(nWins), "count")
	return res, nil
}
