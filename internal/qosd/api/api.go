// Package api holds the wire types of the qosd HTTP+JSON surface,
// shared by the daemon (internal/qosd), its clients (cmd/qosctl's
// remote mode), and the tests. All cycle quantities travel as int64 —
// core.Cycles' underlying representation — so clients need none of the
// library's types to speak the protocol.
//
// Endpoints:
//
//	POST /v1/admit     AdmitRequest  → AdmitResponse   (429 on overload)
//	POST /v1/release   ReleaseRequest → ReleaseResponse (404 unknown)
//	POST /v1/decide    DecideRequest → DecideResponse  (per-item codes)
//	GET  /v1/capacity  → CapacityResponse (?model=name)
//	GET  /healthz      → "ok" (503 while draining)
//	GET  /metrics      → Prometheus text format
//
// Error responses carry an ErrorResponse body; an over-capacity admit
// additionally sets the Retry-After header (seconds). A POST body over
// the daemon's size limit gets 413 before it is decoded.
//
// The two hot types, DecideRequest and DecideResponse, carry their own
// JSON decoders (codec.go), so every caller of json.Unmarshal gets
// them with no change, and DecideResponse.AppendJSON encodes a
// response without reflection. The wire format is exactly
// encoding/json's, byte for byte: the types have no MarshalJSON, and
// AppendJSON writes what json.Marshal writes. AppendJSON appends with
// strconv; a value JSON cannot carry (NaN or ±Inf), or an error string
// that needs escaping, is encoded by json.Marshal instead. Decoding
// takes a fast path only for input in the canonical shape
// encoding/json writes (keys in order and lowercase, no whitespace or
// escapes, numbers in range) into a target whose slice has no
// capacity; everything else, null included, is decoded by
// encoding/json, so results, merge semantics and error texts are
// encoding/json's. DecideRequest.DecodeFirst does the same with
// json.Decoder's treatment of what follows the value. FuzzDecideCodec
// checks every path against encoding/json.
package api

// AdmitRequest admits one or more streams of a model in a single
// request — batching amortizes the HTTP round trip and the admission
// lock over the whole burst. Admission is all-or-nothing: either every
// requested stream is admitted or none is (429 with Retry-After when
// the budget cannot carry the batch within the daemon's admit timeout).
type AdmitRequest struct {
	// Model names the model to admit against; may be empty when the
	// daemon serves exactly one model.
	Model string `json:"model,omitempty"`
	// Streams is the number of streams to admit; 0 means 1.
	Streams int `json:"streams,omitempty"`
	// Soft marks the streams' budget floors sheddable under pressure
	// (mixer degradation step 2). The controller still runs in the
	// daemon's configured mode; Soft only changes the admission
	// contract.
	Soft bool `json:"soft,omitempty"`
	// Weight biases the Weighted sharing policy; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
}

// StreamInfo describes one admitted stream.
type StreamInfo struct {
	// ID is the stream's handle for /v1/decide and /v1/release.
	ID uint64 `json:"id"`
	// Model is the model the stream runs.
	Model string `json:"model"`
	// Share is the stream's granted cycle share for the coming period;
	// Nominal, MinNeed and FullNeed echo its admission contract.
	Share    int64 `json:"share"`
	Nominal  int64 `json:"nominal"`
	MinNeed  int64 `json:"min_need"`
	FullNeed int64 `json:"full_need"`
	// Actions is the length of the model's schedule — the size of a
	// DecideItem.Costs vector and of the per-step Levels reply.
	Actions int `json:"actions"`
}

// AdmitResponse lists the admitted streams in request order.
type AdmitResponse struct {
	Streams []StreamInfo `json:"streams"`
}

// ReleaseRequest releases one admitted stream.
type ReleaseRequest struct {
	Stream uint64 `json:"stream"`
}

// ReleaseResponse acknowledges a release.
type ReleaseResponse struct {
	Released bool `json:"released"`
}

// DecideItem asks for one controlled cycle of one stream: the daemon
// runs the stream's controller through a full cycle — every decision on
// the lean zero-alloc path — charging the execution times the client
// reports.
type DecideItem struct {
	Stream uint64 `json:"stream"`
	// Costs, when present, gives the observed/predicted execution time
	// of each action this cycle, indexed by schedule action ID (length
	// must equal StreamInfo.Actions). When absent the daemon charges
	// the model's per-level average time shifted Load of the way toward
	// the worst case.
	Costs []int64 `json:"costs,omitempty"`
	// Load positions the synthetic execution time in [0, 1] between the
	// average and worst case when Costs is absent; values outside the
	// range are clamped, so the synthetic load always respects the
	// execution contract (no misses in hard mode).
	Load float64 `json:"load,omitempty"`
}

// DecideRequest batches cycle requests for many streams — the syscall
// amortization the daemon exists for.
type DecideRequest struct {
	Items []DecideItem `json:"items"`
}

// Decide item status codes (HTTP-flavoured, carried per item so one bad
// stream does not fail its batch siblings).
const (
	DecideOK          = 200 // cycle served
	DecideBadCosts    = 422 // Costs length does not match the schedule
	DecideUnknown     = 404 // no such stream
	DecideRevoked     = 410 // lease revoked: the stream went silent and was reaped
	DecideFailed      = 500 // controller error mid-cycle
	DecideUnavailable = 503 // daemon draining
)

// DecideResult is one stream's cycle outcome.
type DecideResult struct {
	Stream uint64 `json:"stream"`
	// Code is one of the Decide* constants; Error carries the detail
	// for non-200 codes.
	Code  int    `json:"code"`
	Error string `json:"error,omitempty"`
	// Levels is the controller's chosen level index per executed step,
	// in schedule order — the plan the client should run next cycle.
	Levels []int `json:"levels,omitempty"`
	// Elapsed is the cycle's total charged time; Misses and Fallbacks
	// count deadline misses and forced fallbacks; MeanLevel averages
	// the chosen level indexes.
	Elapsed   int64   `json:"elapsed"`
	Misses    int     `json:"misses"`
	Fallbacks int     `json:"fallbacks"`
	MeanLevel float64 `json:"mean_level"`
}

// DecideResponse lists the outcomes in request order.
type DecideResponse struct {
	Results []DecideResult `json:"results"`
}

// SpecInfo is a model's per-stream admission contract.
type SpecInfo struct {
	Nominal  int64 `json:"nominal"`
	MinNeed  int64 `json:"min_need"`
	FullNeed int64 `json:"full_need"`
	Actions  int   `json:"actions"`
}

// ModelCapacity is one model's admission headroom and mixer snapshot.
type ModelCapacity struct {
	Model  string   `json:"model"`
	Mode   string   `json:"mode"`
	Policy string   `json:"policy"`
	Spec   SpecInfo `json:"spec"`
	// Headroom is how many more default-spec streams the budget could
	// admit right now; Streams counts the admitted ones.
	Headroom int `json:"headroom"`
	Streams  int `json:"streams"`
	// Budget accounting, all in cycles per period.
	Total         int64 `json:"total"`
	Committed     int64 `json:"committed"`
	HardCommitted int64 `json:"hard_committed"`
	Granted       int64 `json:"granted"`
	Slack         int64 `json:"slack"`
	// Degradation state.
	Degraded    bool  `json:"degraded"`
	SoftDemoted int   `json:"soft_demoted"`
	Revoked     int64 `json:"revoked"`
}

// CapacityResponse answers GET /v1/capacity: every served model, or
// just the one named by ?model=.
type CapacityResponse struct {
	Models []ModelCapacity `json:"models"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfter, in seconds, accompanies 429 admission rejections: the
	// client should back off at least this long before re-admitting.
	RetryAfter int `json:"retry_after,omitempty"`
}
