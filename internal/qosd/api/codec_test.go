package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The oracle types: the same fields without the codec's methods, so
// encoding/json handles them by reflection.
type (
	plainRequest  DecideRequest
	plainResponse DecideResponse
)

func readCapture(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// checkDecode decodes data into a DecideRequest and a DecideResponse,
// from a zero target and from pre-filled ones, and requires each to
// match encoding/json decoding into the oracle type: deeply equal
// targets, and the same error text once the oracle's type name is
// replaced by the wire type's.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	stale := func() []DecideItem {
		return []DecideItem{{Stream: 7, Costs: []int64{1, 2}, Load: 0.5}, {Stream: 8, Load: 1}}
	}
	for _, fill := range []func() DecideRequest{
		func() DecideRequest { return DecideRequest{} },
		func() DecideRequest { return DecideRequest{Items: stale()} },
		func() DecideRequest { return DecideRequest{Items: stale()[:0]} },
	} {
		got, want := fill(), plainRequest(fill())
		errGot, errWant := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		if !sameError(errGot, errWant, "plainRequest", "DecideRequest") || !reflect.DeepEqual(got, DecideRequest(want)) {
			t.Fatalf("DecideRequest decode of %q:\n got %+v, %v\nwant %+v, %v", data, got, errGot, want, errWant)
		}
		got, want = fill(), plainRequest(fill())
		errGot, errWant = got.DecodeFirst(data), json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		if !sameError(errGot, errWant, "plainRequest", "DecideRequest") || !reflect.DeepEqual(got, DecideRequest(want)) {
			t.Fatalf("DecideRequest DecodeFirst of %q:\n got %+v, %v\nwant %+v, %v", data, got, errGot, want, errWant)
		}
	}
	staleResults := func() []DecideResult {
		return []DecideResult{{Stream: 3, Code: 200, Levels: []int{1, 2}, MeanLevel: 1.5}, {Stream: 4, Error: "x"}}
	}
	for _, fill := range []func() DecideResponse{
		func() DecideResponse { return DecideResponse{} },
		func() DecideResponse { return DecideResponse{Results: staleResults()} },
		func() DecideResponse { return DecideResponse{Results: staleResults()[:0]} },
	} {
		got, want := fill(), plainResponse(fill())
		errGot, errWant := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		if !sameError(errGot, errWant, "plainResponse", "DecideResponse") || !reflect.DeepEqual(got, DecideResponse(want)) {
			t.Fatalf("DecideResponse decode of %q:\n got %+v, %v\nwant %+v, %v", data, got, errGot, want, errWant)
		}
	}
}

func sameError(got, want error, oracle, wire string) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == strings.ReplaceAll(want.Error(), oracle, wire)
}

// checkEncode requires AppendJSON to append exactly json.Marshal's
// encoding of resp, or both to fail. The request, which has no encoder
// of its own, and the response encodings must then decode as
// encoding/json decodes them.
func checkEncode(t *testing.T, req DecideRequest, resp DecideResponse) {
	t.Helper()
	want, errWant := json.Marshal(resp)
	got, errGot := resp.AppendJSON([]byte("prefix"))
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("encode of %+v: error %v, json.Marshal %v", resp, errGot, errWant)
	}
	if errWant == nil {
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("encode of %+v:\n got %s\nwant prefix%s", resp, got, want)
		}
		checkDecode(t, want)
	}
	if data, err := json.Marshal(req); err == nil {
		checkDecode(t, data)
	}
}

// fuzzValues builds a request and a response from fuzzer-chosen
// fields; shape picks nil, empty or filled slices.
func fuzzValues(stream uint64, load float64, cost int64, msg string, level int, shape uint8) (DecideRequest, DecideResponse) {
	var costs []int64
	var levels []int
	switch shape % 3 {
	case 1:
		costs, levels = []int64{}, []int{}
	case 2:
		costs, levels = []int64{cost, -cost, 0}, []int{level, 0, -level}
	}
	req := DecideRequest{Items: []DecideItem{
		{Stream: stream, Load: load},
		{Stream: ^stream, Costs: costs, Load: -load},
	}}
	resp := DecideResponse{Results: []DecideResult{
		{Stream: stream, Code: level, Error: msg, Levels: levels, Elapsed: cost, Misses: -level, MeanLevel: load},
		{Stream: 1, Code: DecideOK, Levels: levels, Elapsed: -cost, Fallbacks: level, MeanLevel: -load},
	}}
	switch shape / 3 % 3 {
	case 1:
		req.Items, resp.Results = nil, nil
	case 2:
		req.Items, resp.Results = []DecideItem{}, []DecideResult{}
	}
	return req, resp
}

// FuzzDecideCodec is the differential check of the hand-written codec
// against encoding/json: arbitrary bytes must decode identically, and
// fuzzer-built responses must encode to identical bytes.
func FuzzDecideCodec(f *testing.F) {
	// Small canonical seeds: the engine minimizes every new input it
	// finds interesting, and that takes time in the input's length.
	req, resp := fuzzValues(1, 0.5, 100, "", 3, 2)
	reqJSON, _ := json.Marshal(req)
	respJSON, _ := resp.AppendJSON(nil)
	for _, s := range []string{
		string(reqJSON), string(respJSON),
		`{"items":[]}`, `{"results":[]}`, `{"items":null}`, `null`, `[]`, ` {"items":[]} `,
		`{"items":[{"stream":1}]}` + "\n", `{"items":[{"stream":1}]}{`, `{"items":[{"stream":1}]`,
		`{"items":[{"stream":1,"costs":[1,-2,3],"load":0.5}]}`,
		`{"items":[{"stream":1,"costs":[],"load":1e-7}]}`,
		`{"items":[{"Stream":1}]}`, `{"items":[{"stream":1,"stream":2}]}`,
		`{"items":[{"stream":-0}]}`, `{"items":[{"stream":18446744073709551616}]}`,
		`{"items":[{"stream":1,"load":1e400}]}`, `{"items":[{"stream":01}]}`,
		`{"results":[{"stream":1,"code":404,"error":"unknown stream","elapsed":0,"misses":0,"fallbacks":0,"mean_level":0}]}`,
		`{"results":[{"stream":1,"code":200,"error":"a\"b\u00e9","levels":[1,2],"elapsed":5,"misses":0,"fallbacks":0,"mean_level":1.5}]}`,
		`{"results":[{"stream":1,"code":200,"levels":[9223372036854775808],"elapsed":0,"misses":0,"fallbacks":0,"mean_level":0}]}`,
		`{"results":[{"stream":1,"code":2e2,"elapsed":0,"misses":0,"fallbacks":0,"mean_level":-0}]}`,
	} {
		f.Add([]byte(s), uint64(1), 0.5, int64(100), "", 3, uint8(2))
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 5e-324, 1e21, 1e20, math.MaxFloat64, math.Copysign(0, -1), 123456789.125} {
		f.Add([]byte(nil), uint64(math.MaxUint64), x, int64(math.MinInt64), "<a href=\"x\">&é\u2028\x01", -1, uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, stream uint64, load float64, cost int64, msg string, level int, shape uint8) {
		checkDecode(t, data)
		req, resp := fuzzValues(stream, load, cost, msg, level, shape)
		checkEncode(t, req, resp)
	})
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, name := range []string{"decide_request.json", "decide_response.json"} {
		checkDecode(t, readCapture(t, name))
	}
	var req DecideRequest
	var resp DecideResponse
	if err := json.Unmarshal(readCapture(t, "decide_request.json"), &req); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readCapture(t, "decide_response.json"), &resp); err != nil {
		t.Fatal(err)
	}
	checkEncode(t, req, resp)
	for shape := uint8(0); shape < 9; shape++ {
		for _, load := range []float64{0, 0.25, 1e-7, 1e21, 5e-324, math.NaN(), math.Inf(-1)} {
			for _, msg := range []string{"", "unknown stream", "<&>", "é", "tab\there"} {
				req, resp := fuzzValues(42, load, -7, msg, 5, shape)
				checkEncode(t, req, resp)
			}
		}
	}
}

// TestNoMarshalJSON: json.Marshal re-scans and compacts whatever a
// MarshalJSON returns, which costs more than reflection saves on a
// decide batch, so the wire types leave encoding to reflection (and
// the daemon to AppendJSON).
func TestNoMarshalJSON(t *testing.T) {
	for _, v := range []any{DecideRequest{}, &DecideRequest{}, DecideResponse{}, &DecideResponse{}} {
		if _, ok := v.(json.Marshaler); ok {
			t.Errorf("%T implements json.Marshaler", v)
		}
	}
}

// TestCodecErrorTextUnchanged: input the fast path declines reports
// encoding/json's own error, naming the wire types.
func TestCodecErrorTextUnchanged(t *testing.T) {
	for _, in := range []string{`{"items":[{"stream":"x"}]}`, `[]`, `{"items":[{"load":"x"}]}`, `{"items":`} {
		var req DecideRequest
		if json.Unmarshal([]byte(in), &req) == nil {
			t.Fatalf("%s decoded without error", in)
		}
		checkDecode(t, []byte(in))
	}
	var resp DecideResponse
	err := json.Unmarshal([]byte(`[]`), &resp)
	if err == nil || !strings.Contains(err.Error(), "api.DecideResponse") {
		t.Fatalf("error %v does not name api.DecideResponse", err)
	}
}

// batchOf repeats the captured response's results until it holds n.
func batchOf(tb testing.TB, n int) []byte {
	var captured DecideResponse
	if err := json.Unmarshal(readCapture(tb, "decide_response.json"), &captured); err != nil {
		tb.Fatal(err)
	}
	out := DecideResponse{Results: make([]DecideResult, n)}
	for i := range out.Results {
		out.Results[i] = captured.Results[i%len(captured.Results)]
		out.Results[i].Stream = uint64(i + 1)
	}
	b, err := out.AppendJSON(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodeAllocs gates the fast path: decoding a canonical response
// allocates the results and one levels array, whatever the batch size.
func TestDecodeAllocs(t *testing.T) {
	for _, n := range []int{1, 36, 1024} {
		data := batchOf(t, n)
		var r DecideResponse
		allocs := testing.AllocsPerRun(20, func() {
			r = DecideResponse{}
			if err := r.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%d results: %.0f allocations per decode, want at most 2", n, allocs)
		}
		if len(r.Results) != n {
			t.Fatalf("%d results decoded, want %d", len(r.Results), n)
		}
	}
}

// TestDecodedLevelsAreCapped: the results share one levels array, but
// appending to one result's levels never reaches the next result's.
func TestDecodedLevelsAreCapped(t *testing.T) {
	var r DecideResponse
	if err := r.UnmarshalJSON(batchOf(t, 2)); err != nil {
		t.Fatal(err)
	}
	next := append([]int(nil), r.Results[1].Levels...)
	first := r.Results[0].Levels
	if cap(first) != len(first) {
		t.Fatalf("levels len %d cap %d: not capped", len(first), cap(first))
	}
	_ = append(first, -1, -1, -1)
	if !reflect.DeepEqual(r.Results[1].Levels, next) {
		t.Fatal("appending to one result's levels overwrote the next result's")
	}
}

var sinkBytes []byte

// BenchmarkDecideCodec decodes a captured 36-item decide exchange and
// encodes its response, on the fast codec and on encoding/json's
// reflection path. The fast request decode is DecodeFirst, as the
// daemon calls it.
func BenchmarkDecideCodec(b *testing.B) {
	reqData, respData := readCapture(b, "decide_request.json"), readCapture(b, "decide_response.json")
	var resp DecideResponse
	if err := json.Unmarshal(respData, &resp); err != nil {
		b.Fatal(err)
	}
	decode := []struct {
		name string
		data []byte
		into func() any
	}{
		{"request", reqData, func() any { return new(DecideRequest) }},
		{"response", respData, func() any { return new(DecideResponse) }},
	}
	for _, d := range decode {
		for _, side := range []string{"fast", "reflect"} {
			b.Run(fmt.Sprintf("decode/%s/%s", d.name, side), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(d.data)))
				for i := 0; i < b.N; i++ {
					var err error
					switch v := d.into().(type) {
					case *DecideRequest:
						if side == "fast" {
							err = v.DecodeFirst(d.data)
						} else {
							err = json.Unmarshal(d.data, (*plainRequest)(v))
						}
					case *DecideResponse:
						if side == "fast" {
							err = v.UnmarshalJSON(d.data)
						} else {
							err = json.Unmarshal(d.data, (*plainResponse)(v))
						}
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for side, enc := range map[string]func() ([]byte, error){
		"fast":    func() ([]byte, error) { return resp.AppendJSON(make([]byte, 0, len(respData))) },
		"reflect": func() ([]byte, error) { return json.Marshal(resp) },
	} {
		b.Run("encode/response/"+side, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := enc()
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes = out
			}
		})
	}
}
