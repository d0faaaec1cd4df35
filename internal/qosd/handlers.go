package qosd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/qosd/api"
	"repro/internal/session"
)

// writeError sends an api.ErrorResponse; retryAfter > 0 additionally
// sets the Retry-After header (load-shedding contract: the client must
// back off at least that long before re-admitting).
func writeError(w http.ResponseWriter, code int, msg string, retryAfter int) int {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	return writeJSON(w, code, api.ErrorResponse{Error: msg, RetryAfter: retryAfter})
}

// retryAfterSeconds rounds the admit timeout up to whole seconds for
// the Retry-After header (minimum 1: zero would invite an immediate,
// pointless retry).
func (d *Daemon) retryAfterSeconds() int {
	s := int((d.cfg.AdmitTimeout + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// handleAdmit admits a batch of streams, all-or-nothing. Each admission
// queues via AdmitWait up to the daemon's admit timeout; when the
// budget cannot carry the whole batch in time every partial grant is
// rolled back and the client is shed with 429 + Retry-After — admitted
// hard streams never lose reserved capacity to a newcomer.
func (d *Daemon) handleAdmit(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
	}
	if d.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "draining", 0)
	}
	var req api.AdmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
	}
	m, err := d.lookup(req.Model)
	if err != nil {
		return writeError(w, http.StatusNotFound, err.Error(), 0)
	}
	n := req.Streams
	if n == 0 {
		n = 1
	}
	if n < 0 || n > d.cfg.MaxBatch {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("streams must be in [1, %d]", d.cfg.MaxBatch), 0)
	}
	spec := m.spec
	spec.Soft = req.Soft
	if req.Weight > 0 {
		spec.Weight = req.Weight
	}

	ctx, cancel := context.WithTimeout(r.Context(), d.cfg.AdmitTimeout)
	defer cancel()
	grants := make([]*mixer.Grant, 0, n)
	for i := 0; i < n; i++ {
		g, admitErr := m.budget.AdmitWait(ctx, spec)
		if admitErr != nil {
			for _, got := range grants {
				got.Release()
			}
			if errors.Is(admitErr, context.DeadlineExceeded) ||
				errors.Is(admitErr, context.Canceled) ||
				errors.Is(admitErr, mixer.ErrBudgetExhausted) {
				return writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("budget exhausted after %d/%d admissions", i, n),
					d.retryAfterSeconds())
			}
			return writeError(w, http.StatusBadRequest, admitErr.Error(), 0)
		}
		grants = append(grants, g)
	}

	resp := api.AdmitResponse{Streams: make([]api.StreamInfo, 0, n)}
	for _, g := range grants {
		st := d.register(m, g)
		resp.Streams = append(resp.Streams, api.StreamInfo{
			ID:       st.id,
			Model:    m.name,
			Share:    int64(g.Share()),
			Nominal:  int64(spec.Nominal),
			MinNeed:  int64(spec.MinNeed),
			FullNeed: int64(spec.FullNeed),
			Actions:  m.nActions,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// register binds a grant to a fresh session and enters it in the
// stream registry.
func (d *Daemon) register(m *model, g *mixer.Grant) *stream {
	st := &stream{id: d.nextID.Add(1), m: m, grant: g}
	st.sess = m.rt.AcquireBudgeted(g, session.FuncObserver{
		Decision: func(dec core.Decision) {
			st.levels = append(st.levels, dec.LevelIndex)
		},
	})
	d.mu.Lock()
	d.streams[st.id] = st
	d.mu.Unlock()
	return st
}

// handleRelease releases one admitted stream and returns its share to
// the pool.
func (d *Daemon) handleRelease(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
	}
	var req api.ReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
	}
	d.mu.Lock()
	st, ok := d.streams[req.Stream]
	if ok {
		delete(d.streams, req.Stream)
	}
	d.mu.Unlock()
	if !ok {
		return writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown stream %d", req.Stream), 0)
	}
	st.mu.Lock()
	d.teardownLocked(st)
	st.mu.Unlock()
	return writeJSON(w, http.StatusOK, api.ReleaseResponse{Released: true})
}

// handleDecide serves a batch of control cycles. Items are independent:
// each carries its own status code, so one revoked or unknown stream
// does not fail its batch siblings.
func (d *Daemon) handleDecide(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
	}
	if d.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "draining", 0)
	}
	var req api.DecideRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
	}
	if len(req.Items) > d.cfg.MaxBatch {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("at most %d items per batch", d.cfg.MaxBatch), 0)
	}
	resp := api.DecideResponse{Results: make([]api.DecideResult, len(req.Items))}
	for i := range req.Items {
		resp.Results[i] = d.decideOne(&req.Items[i])
	}
	return writeJSON(w, http.StatusOK, resp)
}

// decideOne runs one stream through one controlled cycle.
func (d *Daemon) decideOne(item *api.DecideItem) api.DecideResult {
	out := api.DecideResult{Stream: item.Stream}
	d.mu.Lock()
	st, ok := d.streams[item.Stream]
	d.mu.Unlock()
	if !ok {
		out.Code = api.DecideUnknown
		out.Error = "unknown stream"
		return out
	}

	st.mu.Lock()
	revoked := st.runCycle(item, &out)
	if revoked {
		d.teardownLocked(st)
	}
	st.mu.Unlock()
	if revoked {
		// Registry cleanup happens after st.mu is dropped: the lock
		// order is Daemon.mu → stream.mu, never the reverse.
		d.mu.Lock()
		delete(d.streams, st.id)
		d.mu.Unlock()
	}
	return out
}

// runCycle executes one cycle under st.mu, filling out. It reports
// whether the stream's lease was revoked (caller tears down and drops
// the registry entry).
func (st *stream) runCycle(item *api.DecideItem, out *api.DecideResult) bool {
	if st.gone {
		out.Code = api.DecideUnknown
		out.Error = "stream released"
		return false
	}
	if len(item.Costs) != 0 && len(item.Costs) != st.m.nActions {
		out.Code = api.DecideBadCosts
		out.Error = fmt.Sprintf("costs length %d, schedule has %d actions",
			len(item.Costs), st.m.nActions)
		return false
	}
	for _, c := range item.Costs {
		if c < 0 {
			out.Code = api.DecideBadCosts
			out.Error = "negative cost"
			return false
		}
	}

	// Reset renews the lease (Grant.LeaseDelay) and charges the other
	// streams' handicap; once the lease is gone it latches the terminal
	// error instead.
	st.sess.Reset()
	if err := st.sess.Err(); err != nil {
		out.Code = api.DecideRevoked
		out.Error = err.Error()
		return true
	}

	st.levels = st.levels[:0]
	res, err := st.sess.RunFunc(st.workload(item))
	if err != nil {
		if errors.Is(err, mixer.ErrGrantRevoked) {
			out.Code = api.DecideRevoked
			out.Error = err.Error()
			return true
		}
		out.Code = api.DecideFailed
		out.Error = err.Error()
		return false
	}

	st.m.ctrl.decisions.Add(int64(res.Stats.Decisions))
	st.m.ctrl.fallbacks.Add(int64(res.Stats.Fallbacks))
	st.m.ctrl.levelSum.Add(res.Stats.LevelSum)
	st.m.ctrl.levelChanges.Add(int64(res.Stats.LevelChanges))
	st.m.ctrl.candidateEval.Add(int64(res.Stats.CandidateEval))

	out.Code = api.DecideOK
	out.Levels = append([]int(nil), st.levels...)
	out.Elapsed = int64(res.Elapsed)
	out.Misses = res.Misses
	out.Fallbacks = res.Fallbacks
	out.MeanLevel = res.MeanLevel()
	return false
}

// workload builds the cycle's execution-time function. Explicit Costs
// are charged verbatim (indexed by schedule action ID); otherwise each
// action costs its per-level average shifted Load of the way toward the
// worst case, clamped into [0, 1] so the synthetic cost always respects
// the execution contract.
func (st *stream) workload(item *api.DecideItem) func(core.ActionID, core.Level) core.Cycles {
	if len(item.Costs) > 0 {
		costs := item.Costs
		return func(a core.ActionID, _ core.Level) core.Cycles {
			return core.Cycles(costs[a])
		}
	}
	f := item.Load
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	sys := st.m.rt.System()
	return func(a core.ActionID, q core.Level) core.Cycles {
		av := sys.Cav.At(q, a)
		wc := sys.Cwc.At(q, a)
		if wc.IsInf() {
			return av
		}
		return av.AddSat(core.Cycles(f * float64(wc.SubSat(av))))
	}
}

// handleCapacity reports every model's admission headroom (or one
// model's, with ?model=).
func (d *Daemon) handleCapacity(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET required", 0)
	}
	names := d.order
	if q := r.URL.Query().Get("model"); q != "" {
		if _, ok := d.models[q]; !ok {
			return writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", q), 0)
		}
		names = []string{q}
	}
	resp := api.CapacityResponse{Models: make([]api.ModelCapacity, 0, len(names))}
	for _, name := range names {
		m := d.models[name]
		bs := m.budget.Stats()
		resp.Models = append(resp.Models, api.ModelCapacity{
			Model:  m.name,
			Mode:   m.rt.Program().Mode().String(),
			Policy: bs.Policy.String(),
			Spec: api.SpecInfo{
				Nominal:  int64(m.spec.Nominal),
				MinNeed:  int64(m.spec.MinNeed),
				FullNeed: int64(m.spec.FullNeed),
				Actions:  m.nActions,
			},
			Headroom:      m.budget.Headroom(m.spec),
			Streams:       bs.Streams,
			Total:         int64(bs.Total),
			Committed:     int64(bs.Committed),
			HardCommitted: int64(bs.HardCommitted),
			Granted:       int64(bs.Granted),
			Slack:         int64(bs.Slack),
			Degraded:      bs.Degraded,
			SoftDemoted:   bs.SoftDemoted,
			Revoked:       bs.Revoked,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleHealthz answers liveness probes: 200 "ok" while serving, 503
// once draining.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET required", 0)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return http.StatusServiceUnavailable
	}
	fmt.Fprintln(w, "ok")
	return http.StatusOK
}
