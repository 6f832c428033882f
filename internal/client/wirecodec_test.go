package client

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// jsonResponse is remoteResponse as encoding/json sees the wire, IQ points
// and raw samples spelled as [2]float64 pairs: the codec's reference for
// responses. TestJSONResponseMirrorsResponse keeps the two in step.
type jsonResponse struct {
	Error           string               `json:"error,omitempty"`
	ErrorKind       string               `json:"error_kind,omitempty"`
	Counts          map[uint64]int       `json:"counts,omitempty"`
	Shots           int                  `json:"shots"`
	DurationSeconds float64              `json:"duration_seconds"`
	MeasLevel       string               `json:"meas_level,omitempty"`
	Bits            []int                `json:"bits,omitempty"`
	IQ              [][][2]float64       `json:"iq,omitempty"`
	Raw             [][][][2]float64     `json:"raw,omitempty"`
	Spans           []telemetry.SpanWire `json:"spans,omitempty"`
	Telemetry       json.RawMessage      `json:"telemetry,omitempty"`
}

// convert maps s element by element, keeping nil nil and empty empty.
func convert[A, B any](s []A, f func(A) B) []B {
	if s == nil {
		return nil
	}
	out := make([]B, len(s))
	for i, v := range s {
		out[i] = f(v)
	}
	return out
}

func toJSON(r *remoteResponse) jsonResponse {
	j := jsonResponse{
		Error: r.Error, ErrorKind: r.ErrorKind, Counts: r.Counts, Shots: r.Shots,
		DurationSeconds: r.DurationSeconds, MeasLevel: r.MeasLevel,
		Bits: r.Bits, Spans: r.Spans, Telemetry: r.Telemetry,
	}
	j.IQ = convert(r.IQ, func(row []readout.IQ) [][2]float64 {
		return convert(row, func(p readout.IQ) [2]float64 { return [2]float64{p.I, p.Q} })
	})
	j.Raw = convert(r.Raw, func(shot [][]complex128) [][][2]float64 {
		return convert(shot, func(trace []complex128) [][2]float64 {
			return convert(trace, func(v complex128) [2]float64 { return [2]float64{real(v), imag(v)} })
		})
	})
	return j
}

func fromJSON(j *jsonResponse) remoteResponse {
	r := remoteResponse{
		Error: j.Error, ErrorKind: j.ErrorKind, Counts: j.Counts, Shots: j.Shots,
		DurationSeconds: j.DurationSeconds, MeasLevel: j.MeasLevel,
		Bits: j.Bits, Spans: j.Spans, Telemetry: j.Telemetry,
	}
	r.IQ = convert(j.IQ, func(row [][2]float64) []readout.IQ {
		return convert(row, func(p [2]float64) readout.IQ { return readout.IQ{I: p[0], Q: p[1]} })
	})
	r.Raw = convert(j.Raw, func(shot [][][2]float64) [][]complex128 {
		return convert(shot, func(trace [][2]float64) []complex128 {
			return convert(trace, func(p [2]float64) complex128 { return complex(p[0], p[1]) })
		})
	})
	return r
}

// TestJSONResponseMirrorsResponse: the reference has remoteResponse's
// fields in its order, with its types and tags, except that IQ and Raw are
// pairs under their wire names.
func TestJSONResponseMirrorsResponse(t *testing.T) {
	got, want := reflect.TypeFor[jsonResponse](), reflect.TypeFor[remoteResponse]()
	if got.NumField() != want.NumField() {
		t.Fatalf("jsonResponse has %d fields, remoteResponse %d", got.NumField(), want.NumField())
	}
	pairs := map[string]string{"IQ": `json:"iq,omitempty"`, "Raw": `json:"raw,omitempty"`}
	for i := range got.NumField() {
		g, w := got.Field(i), want.Field(i)
		if tag, ok := pairs[w.Name]; ok {
			if g.Name != w.Name || string(g.Tag) != tag {
				t.Errorf("field %d: %s %s, want %s %s", i, g.Name, g.Tag, w.Name, tag)
			}
			continue
		}
		if g.Name != w.Name || g.Type != w.Type || g.Tag != w.Tag {
			t.Errorf("field %d: %s %v %s, want %s %v %s", i, g.Name, g.Type, g.Tag, w.Name, w.Type, w.Tag)
		}
	}
}

// wireCodecSeeds are frames of every shape the protocol carries, and lines
// that probe where a hand-written JSON reader can part from encoding/json.
var wireCodecSeeds = []string{
	`{"op":"register","id":"x@1","program":"define void @m() #0 {\n}\n","params":[{"name":"theta","min":0.001,"max":3.14}],"epoch":1}`,
	`{"op":"submit","id":"rabi","bindings":{"theta":1.5,"phi":-2e-7},"device":"tiny-1","pool":"p","shots":16,"priority":2,"tag":"t","timeout_ms":50,"meas_level":"kerneled","meas_return":"avg","trace_id":"abc"}`,
	`{"op":"telemetry"}`,
	`{"counts":{"0":3,"1":5,"10":2,"2":6},"shots":16,"duration_seconds":0.000001}`,
	`{"shots":2,"duration_seconds":1e-7,"meas_level":"kerneled","bits":[0,1],"iq":[[[0.5,-0.25],[1,2]],[[3,4],[5,6]]]}`,
	`{"shots":1,"duration_seconds":0,"meas_level":"raw","bits":[0],"iq":[[[1,2]]],"raw":[[[[1,2],[3,4e21]],null,[]]]}`,
	`{"shots":0,"duration_seconds":0,"spans":[{"id":1,"stage":"queue-wait","start_unix_nano":5,"duration_ns":7},{"id":2,"parent":1,"stage":"dispatch","device":"d","start_unix_nano":6,"duration_ns":1}]}`,
	`{"shots":0,"duration_seconds":0,"telemetry":{"counters":{"jobs":3},"note":"<a&b>"}}`,
	`{"error":"queue full","error_kind":"overloaded","shots":0,"duration_seconds":0}`,
	" \t\r\n{ \"op\" : \"submit\" , \"shots\" : 3 } \n",
	"{\"OP\":\"Submit\",\"\u017fhots\":3,\"Timeout_MS\":4,\"ERROR_\u212aIND\":\"x\",\"unknown\":{\"a\":[1,{\"b\":null}],\"c\":\"d\"}}",
	`{"op":"a","op":"b","shots":1,"shots":null}`,
	`{"bits":[1,2,3],"bits":[7],"bits":[7,null,null]}`,
	`{"iq":[[[1,2],[3,4]]],"iq":[[null,[5]]],"iq":[[[null,9],[],[1,2,"extra",{}]]]}`,
	`{"iq":[[[1,2],[3,4]]],"iq":[[[5],null]]}`, `{"raw":[[[[1,2]]]],"raw":[[[[5]]]]}`,
	`{"params":[{"name":"a","min":1},{"name":"b","max":2}],"params":[{"name":"c"}],"params":[{},{}]}`,
	`{"counts":{"007":1,"1":null,"2":2},"counts":{"3":3}}`,
	`{"bindings":{"x":1},"bindings":{"y":2},"bindings":null,"bindings":{}}`,
	`{"error":"\u003c\ud83d\ude00\ud800x\udc00\"\\\/\b\f\n\r\t\u0000\u2028"}`,
	"{\"tag\":\"\xff\xfe ok \xe2\x80\xa8 \xe2\x80\xa9\"}",
	`{"telemetry": { "a" : [ 1 , 2 ] , "b" : "\u2029 <" } }`,
	`{"telemetry":null,"telemetry":"s"}`,
	`{"shots":1.0}`, `{"shots":-0}`, `{"shots":9223372036854775808}`, `{"shots":-9223372036854775808}`,
	`{"duration_seconds":1e400}`, `{"duration_seconds":-0.0e-0}`, `{"counts":{"18446744073709551616":1}}`,
	`{"counts":{"-1":1}}`, `{"counts":{" 1":1}}`, `{"counts":{"\u0031":1}}`,
	`null`, ` `, ``, `[]`, `"op"`, `{"op":"x"} {}`, `{"op":"x",}`, `{"op" "x"}`, `{"shots":01}`, `{"shots":1.}`,
	`{"shots":.5}`, `{"shots":+1}`, `{"shots":tru}`, `{"op":"\x01"}`, `{"op":"\u12"}`, `{"op":"\a"}`, `{"bits":[1,]}`,
	`{"iq":[1]}`, `{"iq":{}}`, `{"spans":[null,{"id":"1"}]}`, `{"counts":[]}`, `{"raw":[[[["1",2]]]]}`,
}

// FuzzWireCodec holds the codec to encoding/json. Every input is read as a
// request line and as a response line — the codec accepts it exactly when
// Unmarshal does, and then decodes the same value — and also spells a
// request and a response value, which the codec must write as Marshal does
// (plus the newline), or refuse as Marshal does.
func FuzzWireCodec(f *testing.F) {
	for _, seed := range wireCodecSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		line := []byte(input)
		var wantReq, gotReq remoteRequest
		werr, gerr := json.Unmarshal(line, &wantReq), parseRequest(line, &gotReq)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("request %q: encoding/json says %v, the codec %v", input, werr, gerr)
		}
		if werr == nil {
			if !reflect.DeepEqual(gotReq, wantReq) {
				t.Fatalf("request %q decodes to\n%#v\nwant\n%#v", input, gotReq, wantReq)
			}
			checkRequestEncoding(t, &gotReq)
		}

		var ref jsonResponse
		var gotResp remoteResponse
		werr, gerr = json.Unmarshal(line, &ref), parseResponse(line, &gotResp)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("response %q: encoding/json says %v, the codec %v", input, werr, gerr)
		}
		if werr == nil {
			if want := fromJSON(&ref); !reflect.DeepEqual(gotResp, want) {
				t.Fatalf("response %q decodes to\n%#v\nwant\n%#v", input, gotResp, want)
			}
			checkResponseEncoding(t, &gotResp)
		}

		g := &valueGen{b: line}
		req, resp := g.request(), g.response()
		checkRequestEncoding(t, &req)
		checkResponseEncoding(t, &resp)
	})
}

func checkRequestEncoding(t *testing.T, r *remoteRequest) {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := appendRequest(nil, r)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("request %#v: encoding/json says %v, the codec %v", r, werr, gerr)
	}
	if werr == nil && string(got) != string(want)+"\n" {
		t.Fatalf("request %#v:\ncodec %q\njson  %q", r, got, want)
	}
}

func checkResponseEncoding(t *testing.T, r *remoteResponse) {
	t.Helper()
	want, werr := json.Marshal(toJSON(r))
	got, gerr := appendResponse(nil, r)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("response %#v: encoding/json says %v, the codec %v", r, werr, gerr)
	}
	if werr == nil && string(got) != string(want)+"\n" {
		t.Fatalf("response %#v:\ncodec %q\njson  %q", r, got, want)
	}
}

// TestWireCodecDepth: nesting is refused past encoding/json's limit, not
// before, wherever it happens.
func TestWireCodecDepth(t *testing.T) {
	nest := func(depth int) string { // an unknown field nesting the frame to depth
		return `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
	}
	for _, tc := range []struct {
		line string
		ok   bool
	}{{nest(maxWireDepth), true}, {nest(maxWireDepth + 1), false}} {
		var req remoteRequest
		if err := json.Unmarshal([]byte(tc.line), &req); (err == nil) != tc.ok {
			t.Fatalf("encoding/json on depth %d: %v", strings.Count(tc.line, "["), err)
		}
		if err := parseRequest([]byte(tc.line), &req); (err == nil) != tc.ok {
			t.Fatalf("codec on depth %d: %v", strings.Count(tc.line, "["), err)
		}
		var resp remoteResponse
		if err := parseResponse([]byte(tc.line), &resp); (err == nil) != tc.ok {
			t.Fatalf("codec response on depth %d: %v", strings.Count(tc.line, "["), err)
		}
	}
}

// valueGen spells request and response values out of fuzz bytes: strings
// with escapes and invalid UTF-8, floats at the format's cut-offs and
// beyond the finite, and slices and maps nil, empty or full.
type valueGen struct{ b []byte }

func (g *valueGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *valueGen) str() string {
	n := min(int(g.byte()%12), len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *valueGen) int() int64 {
	switch c := g.byte(); c % 4 {
	case 0:
		return 0
	case 1:
		return int64(c) - 128
	case 2:
		return math.MinInt64 + int64(g.byte())
	default:
		return int64(g.byte())<<40 | int64(g.byte())
	}
}

func (g *valueGen) float() float64 {
	special := []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 9.99e20, -1e-320, 0.1, math.NaN(), math.Inf(-1)}
	c := g.byte()
	if int(c) < 2*len(special) {
		return special[int(c)%len(special)]
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(g.byte())
	}
	return math.Float64frombits(bits)
}

// n is a length, or -1 for nil.
func (g *valueGen) n() int { return int(g.byte()%5) - 1 }

func genSlice[E any](g *valueGen, elem func() E) []E {
	n := g.n()
	if n < 0 {
		return nil
	}
	s := make([]E, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

func genMap[K comparable, V any](g *valueGen, key func() K, elem func() V) map[K]V {
	n := g.n()
	if n < 0 {
		return nil
	}
	m := make(map[K]V, n)
	for range n {
		m[key()] = elem()
	}
	return m
}

func (g *valueGen) request() remoteRequest {
	return remoteRequest{
		Op: g.str(), ID: g.str(), Program: g.str(),
		Params: genSlice(g, func() ptemplate.Param { return ptemplate.Param{Name: g.str(), Min: g.float(), Max: g.float()} }),
		Epoch:  g.int(), Bindings: genMap(g, g.str, g.float), Device: g.str(), Pool: g.str(),
		Shots: int(g.int()), Priority: int(g.int()), Tag: g.str(), TimeoutMs: g.int(),
		MeasLevel: g.str(), MeasReturn: g.str(), TraceID: g.str(),
	}
}

func (g *valueGen) response() remoteResponse {
	raws := []string{"", `{"a":[1,2]}`, " { \"a\" : \"<&>\u2028\" , \"b\" : [ ] } ", `nul`, `{"a":1}x`, `"s"`, `[1,]`}
	pair := func() [2]float64 { return [2]float64{g.float(), g.float()} }
	r := remoteResponse{
		Error: g.str(), ErrorKind: g.str(),
		Counts: genMap(g, func() uint64 { return uint64(g.int()) }, func() int { return int(g.int()) }),
		Shots:  int(g.int()), DurationSeconds: g.float(),
		MeasLevel: g.str(),
		Bits:      genSlice(g, func() int { return int(g.int()) }),
		IQ: genSlice(g, func() []readout.IQ {
			return genSlice(g, func() readout.IQ { p := pair(); return readout.IQ{I: p[0], Q: p[1]} })
		}),
		Raw: genSlice(g, func() [][]complex128 {
			return genSlice(g, func() []complex128 {
				return genSlice(g, func() complex128 { p := pair(); return complex(p[0], p[1]) })
			})
		}),
		Spans: genSlice(g, func() telemetry.SpanWire {
			return telemetry.SpanWire{ID: g.int(), Parent: g.int(), Stage: g.str(), Device: g.str(), StartUnixNano: g.int(), DurationNs: g.int()}
		}),
	}
	if raw := raws[int(g.byte())%len(raws)]; raw != "" {
		r.Telemetry = json.RawMessage(raw)
	}
	return r
}
