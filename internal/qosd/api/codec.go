package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The decode fallback types: the same fields with none of the methods
// below, so encoding/json handles them by reflection. Each decode
// declares its fallback type locally under the original name, which
// keeps encoding/json's error texts naming DecideRequest and
// DecideResponse.
type (
	requestFields  = DecideRequest
	responseFields = DecideResponse
)

// AppendJSON appends r's JSON encoding to b, byte for byte as
// json.Marshal encodes r. A value JSON cannot carry (NaN or ±Inf), or
// an error string that needs escaping, is encoded by json.Marshal.
func (r DecideResponse) AppendJSON(b []byte) ([]byte, error) {
	if r.Results == nil {
		return append(b, `{"results":null}`...), nil
	}
	start := len(b)
	b = append(b, `{"results":[`...)
	for i := range r.Results {
		res := &r.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"stream":`...)
		b = strconv.AppendUint(b, res.Stream, 10)
		b = append(b, `,"code":`...)
		b = strconv.AppendInt(b, int64(res.Code), 10)
		ok := true
		if res.Error != "" {
			b = append(b, `,"error":`...)
			b, ok = appendPlainString(b, res.Error)
		}
		if len(res.Levels) > 0 {
			b = append(b, `,"levels":[`...)
			for k, l := range res.Levels {
				if k > 0 {
					b = append(b, ',')
				}
				if 0 <= l && l <= 9 { // level indexes: nearly always one digit
					b = append(b, byte('0'+l))
				} else {
					b = strconv.AppendInt(b, int64(l), 10)
				}
			}
			b = append(b, ']')
		}
		b = append(b, `,"elapsed":`...)
		b = strconv.AppendInt(b, res.Elapsed, 10)
		b = append(b, `,"misses":`...)
		b = strconv.AppendInt(b, int64(res.Misses), 10)
		b = append(b, `,"fallbacks":`...)
		b = strconv.AppendInt(b, int64(res.Fallbacks), 10)
		b = append(b, `,"mean_level":`...)
		if ok {
			b, ok = appendFloat(b, res.MeanLevel)
		}
		if !ok {
			return appendFallback(b[:start], r)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendFallback appends encoding/json's encoding of v to b.
func appendFallback(b []byte, v any) ([]byte, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, out...), nil
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest representation, in exponent form only below 1e-6 or from
// 1e21 up, with a one-digit negative exponent left unpadded. It
// reports false for NaN and ±Inf, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendPlainString appends s quoted, if s is printable ASCII that
// encoding/json would copy verbatim: no quote, backslash, or HTML
// character. It reports false otherwise.
func appendPlainString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// streamKey opens every item and every result in the canonical
// encoding, and appears nowhere else: a quote inside a string is
// always escaped.
var streamKey = []byte(`{"stream":`)

// UnmarshalJSON decodes data as encoding/json would decode r's fields.
// Input in the canonical shape encoding/json writes, into an Items
// slice with no capacity, takes the fast path; anything else goes to
// encoding/json.
func (r *DecideRequest) UnmarshalJSON(data []byte) error {
	if cap(r.Items) == 0 {
		if items, rest, ok := decodeItems(data); ok && len(rest) == 0 {
			r.Items = items
			return nil
		}
	}
	type DecideRequest requestFields
	return json.Unmarshal(data, (*DecideRequest)(r))
}

// DecodeFirst decodes the first JSON value in data into r, as
// json.NewDecoder(bytes.NewReader(data)).Decode(r) does: leading
// whitespace is skipped, anything after the value is ignored, and the
// errors are json.Decoder's. A canonical value takes the fast path, as
// in UnmarshalJSON; anything else is decoded by json.Decoder alone.
func (r *DecideRequest) DecodeFirst(data []byte) error {
	if cap(r.Items) == 0 {
		if items, _, ok := decodeItems(data); ok {
			r.Items = items
			return nil
		}
	}
	type DecideRequest requestFields
	return json.NewDecoder(bytes.NewReader(data)).Decode((*DecideRequest)(r))
}

// decodeItems reads one canonical request from the front of data and
// returns its items and the bytes after it; ok is false if data does
// not start with a canonical request.
func decodeItems(data []byte) (items []DecideItem, rest []byte, ok bool) {
	rd := reader{b: data, ok: true}
	if rd.lit(`{"items":[`); !rd.ok {
		return nil, nil, false
	}
	items = make([]DecideItem, 0, bytes.Count(data, streamKey))
	var slab []int64 // backs every Costs vector
	for rd.ok && !rd.opt("]") {
		if len(items) > 0 {
			rd.lit(",")
		}
		if len(items) == cap(items) {
			return nil, nil, false
		}
		items = items[:len(items)+1]
		it := &items[len(items)-1]
		rd.lit(`{"stream":`)
		it.Stream = rd.uint64()
		if rd.opt(`,"costs":[`) {
			it.Costs, slab = readInts(&rd, slab)
		}
		if rd.opt(`,"load":`) {
			it.Load = rd.float64()
		}
		rd.lit("}")
	}
	rd.lit("}")
	if !rd.ok {
		return nil, nil, false
	}
	return items, data[rd.i:], true
}

// UnmarshalJSON decodes data as encoding/json would decode r's fields.
// Input in the canonical shape AppendJSON writes, into a Results slice
// with no capacity, takes the fast path; anything else goes to
// encoding/json. The fast path allocates the results and one array
// that backs every Levels slice; each Levels is capped at its own
// length, so appending to one never overwrites the next.
func (r *DecideResponse) UnmarshalJSON(data []byte) error {
	if cap(r.Results) == 0 {
		if results, ok := decodeResults(data); ok {
			r.Results = results
			return nil
		}
	}
	type DecideResponse responseFields
	return json.Unmarshal(data, (*DecideResponse)(r))
}

func decodeResults(data []byte) ([]DecideResult, bool) {
	rd := reader{b: data, ok: true}
	if rd.lit(`{"results":[`); !rd.ok {
		return nil, false
	}
	results := make([]DecideResult, 0, bytes.Count(data, streamKey))
	var slab []int // backs every Levels slice
	for rd.ok && !rd.opt("]") {
		if len(results) > 0 {
			rd.lit(",")
		}
		if len(results) == cap(results) {
			return nil, false
		}
		results = results[:len(results)+1]
		res := &results[len(results)-1]
		rd.lit(`{"stream":`)
		res.Stream = rd.uint64()
		rd.lit(`,"code":`)
		res.Code = rd.int()
		if rd.opt(`,"error":`) {
			res.Error = rd.str()
		}
		if rd.opt(`,"levels":[`) {
			res.Levels, slab = readInts(&rd, slab)
		}
		rd.lit(`,"elapsed":`)
		res.Elapsed = rd.int64()
		rd.lit(`,"misses":`)
		res.Misses = rd.int()
		rd.lit(`,"fallbacks":`)
		res.Fallbacks = rd.int()
		rd.lit(`,"mean_level":`)
		res.MeanLevel = rd.float64()
		rd.lit("}")
	}
	rd.lit("}")
	return results, rd.done()
}

// reader reads one canonical encoding strictly: no whitespace, no
// escapes, numbers in JSON's grammar. The first unexpected byte turns
// ok false for good, and every later read is then a no-op.
type reader struct {
	b  []byte
	i  int
	ok bool
}

// done reports whether every read succeeded and consumed all input.
func (r *reader) done() bool { return r.ok && r.i == len(r.b) }

// lit consumes s, which must come next.
func (r *reader) lit(s string) {
	if !r.opt(s) {
		r.ok = false
	}
}

// skip consumes c if it comes next and reports whether it did.
func (r *reader) skip(c byte) bool {
	if r.ok && r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// opt consumes s if it comes next and reports whether it did.
func (r *reader) opt(s string) bool {
	if r.ok && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// number consumes one JSON number and returns its text.
func (r *reader) number() []byte {
	if !r.ok {
		return nil
	}
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		r.ok = false
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			r.ok = false
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			r.ok = false
			return nil
		}
		i = j
	}
	num := b[r.i:i]
	r.i = i
	return num
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes a JSON number that must be an integer and returns
// its sign and magnitude. A fraction, an exponent or a magnitude over
// 2⁶⁴−1 fails, as strconv.ParseInt and ParseUint fail on them.
func (r *reader) integer() (neg bool, mag uint64) {
	if !r.ok {
		return false, 0
	}
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		if mag > math.MaxUint64/10 || mag == math.MaxUint64/10 && d > math.MaxUint64%10 {
			r.ok = false
			return false, 0
		}
		mag = mag*10 + d
	}
	if i == start || b[start] == '0' && i-start > 1 ||
		i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		r.ok = false
		return false, 0
	}
	r.i = i
	return neg, mag
}

func (r *reader) uint64() uint64 {
	neg, mag := r.integer()
	if neg {
		r.ok = false
	}
	return mag
}

func (r *reader) int64() int64 {
	neg, mag := r.integer()
	if neg {
		if mag > 1<<63 {
			r.ok = false
		}
		return -int64(mag)
	}
	if mag > math.MaxInt64 {
		r.ok = false
	}
	return int64(mag)
}

func (r *reader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.ok = false
	}
	return int(v)
}

// readInts reads the rest of a non-empty array of integers, up to and
// including its "]", onto slab, and returns the array as a slice capped
// at its own length together with the extended slab. A nil slab is
// allocated with room for every number left in the input, so one array
// backs all the arrays of a decode.
func readInts[T int | int64](r *reader, slab []T) (arr, rest []T) {
	if slab == nil {
		slab = make([]T, 0, bytes.Count(r.b[r.i:], []byte(","))+1)
	}
	n := len(slab)
	for r.ok && (len(slab) == n || !r.skip(']')) {
		if len(slab) > n && !r.skip(',') {
			r.ok = false
		}
		v := r.int64()
		if len(slab) == cap(slab) || int64(T(v)) != v {
			r.ok = false
			break
		}
		slab = append(slab, T(v))
	}
	return slab[n:len(slab):len(slab)], slab
}

// float64 consumes a JSON number and converts it as encoding/json
// does, with strconv.ParseFloat; out-of-range values fail.
func (r *reader) float64() float64 {
	num := r.number()
	if !r.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		r.ok = false
	}
	return f
}

// str consumes a string of bytes appendPlainString would write
// verbatim, and returns it.
func (r *reader) str() string {
	r.lit(`"`)
	if !r.ok {
		return ""
	}
	j := r.i
	for j < len(r.b) && plainByte(r.b[j]) {
		j++
	}
	if j == len(r.b) || r.b[j] != '"' {
		r.ok = false
		return ""
	}
	s := string(r.b[r.i:j])
	r.i = j + 1
	return s
}
