package client

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// The encoding/json reference of the frames, independent of the codec: each
// frame is a struct whose tags spell its keys, with the measurement levels,
// IQ points, raw samples and span starts in their wire forms, and a pair of
// conversions to and from the frame values. FuzzWireCodec holds the codec
// to it; TestReferenceKeysAreTheCodecs keeps its keys the codec's.

type jsonRequest struct {
	Op         string         `json:"op"`
	ID         string         `json:"id,omitempty"`
	Program    string         `json:"program,omitempty"`
	Epoch      int64          `json:"epoch,omitempty"`
	Device     string         `json:"device,omitempty"`
	Pool       string         `json:"pool,omitempty"`
	Shots      int            `json:"shots,omitempty"`
	Priority   int            `json:"priority,omitempty"`
	TimeoutMs  int64          `json:"timeout_ms,omitempty"`
	MeasLevel  jsonMeasLevel  `json:"meas_level,omitempty"`
	MeasReturn jsonMeasReturn `json:"meas_return,omitzero"`
	TraceID    string         `json:"trace_id,omitempty"`
}

type jsonResponse struct {
	Error           string           `json:"error,omitempty"`
	ErrorKind       string           `json:"error_kind,omitempty"`
	Counts          map[uint64]int   `json:"counts,omitempty"`
	Shots           int              `json:"shots"`
	DurationSeconds float64          `json:"duration_seconds"`
	MeasLevel       jsonMeasLevel    `json:"meas_level,omitempty"`
	Bits            []int            `json:"bits,omitempty"`
	IQ              [][][2]float64   `json:"iq,omitempty"`
	Raw             [][][][2]float64 `json:"raw,omitempty"`
	Spans           []jsonSpan       `json:"spans,omitempty"`
	Telemetry       json.RawMessage  `json:"telemetry,omitempty"`
}

type jsonSpan struct {
	ID            int64  `json:"id"`
	Parent        int64  `json:"parent,omitempty"`
	Stage         string `json:"stage"`
	Device        string `json:"device,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNs    int64  `json:"duration_ns"`
}

// jsonMeasLevel is a measurement level by name; the discriminated level is
// zero, so omitempty leaves it out.
type jsonMeasLevel readout.MeasLevel

func (l jsonMeasLevel) MarshalJSON() ([]byte, error) {
	return json.Marshal(readout.MeasLevel(l).String())
}

func (l *jsonMeasLevel) UnmarshalJSON(b []byte) error {
	return unmarshalName(b, func(s string) error {
		v, err := readout.ParseMeasLevel(s)
		*l = jsonMeasLevel(v)
		return err
	})
}

// jsonMeasReturn is a measurement return by name, sent only beside a level
// that is sent.
type jsonMeasReturn struct {
	v    readout.MeasReturn
	sent bool
}

func (r jsonMeasReturn) IsZero() bool { return !r.sent }

func (r jsonMeasReturn) MarshalJSON() ([]byte, error) { return json.Marshal(r.v.String()) }

func (r *jsonMeasReturn) UnmarshalJSON(b []byte) error {
	return unmarshalName(b, func(s string) (err error) {
		r.v, err = readout.ParseMeasReturn(s)
		return err
	})
}

// unmarshalName hands a JSON string to parse; null is a no-op, as
// Unmarshal's convention for an Unmarshaler has it.
func unmarshalName(b []byte, parse func(string) error) error {
	if string(b) == "null" {
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	return parse(s)
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

func requestToJSON(r *remoteRequest) jsonRequest {
	j := jsonRequest{
		Op: r.Op, ID: r.ID, Program: r.Program, Epoch: r.Epoch,
		Device: r.Device, Pool: r.Pool, Shots: r.Shots,
		Priority: r.Priority, TimeoutMs: r.TimeoutMs, MeasLevel: jsonMeasLevel(r.MeasLevel), TraceID: r.TraceID,
	}
	j.MeasReturn = jsonMeasReturn{v: r.MeasReturn, sent: r.MeasLevel != readout.LevelDiscriminated}
	return j
}

func requestFromJSON(j *jsonRequest) remoteRequest {
	r := remoteRequest{
		Op: j.Op, ID: j.ID, Program: j.Program, Epoch: j.Epoch,
		Device: j.Device, TimeoutMs: j.TimeoutMs,
	}
	r.Pool, r.Shots, r.Priority, r.TraceID = j.Pool, j.Shots, j.Priority, j.TraceID
	r.MeasLevel, r.MeasReturn = readout.MeasLevel(j.MeasLevel), j.MeasReturn.v
	return r
}

func responseToJSON(r *remoteResponse) jsonResponse {
	j := jsonResponse{
		Error: r.Error, ErrorKind: r.ErrorKind, Counts: r.Counts, Shots: r.Shots,
		DurationSeconds: r.DurationSeconds, MeasLevel: jsonMeasLevel(r.MeasLevel), Telemetry: r.Telemetry,
	}
	if r.MeasLevel != readout.LevelDiscriminated {
		j.Bits = r.Bits
		j.IQ = convert(r.IQ, func(row []readout.IQ) [][2]float64 {
			return convert(row, func(p readout.IQ) [2]float64 { return [2]float64{p.I, p.Q} })
		})
	}
	if r.MeasLevel == readout.LevelRaw {
		j.Raw = convert(r.Raw, func(shot [][]complex128) [][][2]float64 {
			return convert(shot, func(trace []complex128) [][2]float64 {
				return convert(trace, func(v complex128) [2]float64 { return [2]float64{real(v), imag(v)} })
			})
		})
	}
	j.Spans = convert(r.Spans, func(s telemetry.Span) jsonSpan {
		return jsonSpan{
			ID: int64(s.ID), Parent: int64(s.Parent), Stage: string(s.Stage), Device: s.Device,
			StartUnixNano: s.Start.UnixNano(), DurationNs: int64(s.Duration),
		}
	})
	return j
}

func responseFromJSON(j *jsonResponse) remoteResponse {
	r := remoteResponse{Error: j.Error, ErrorKind: j.ErrorKind, Telemetry: j.Telemetry}
	r.Counts, r.Shots, r.DurationSeconds = j.Counts, j.Shots, j.DurationSeconds
	r.MeasLevel, r.Bits = readout.MeasLevel(j.MeasLevel), j.Bits
	r.IQ = convert(j.IQ, func(row [][2]float64) []readout.IQ {
		return convert(row, func(p [2]float64) readout.IQ { return readout.IQ{I: p[0], Q: p[1]} })
	})
	r.Raw = convert(j.Raw, func(shot [][][2]float64) [][]complex128 {
		return convert(shot, func(trace [][2]float64) []complex128 {
			return convert(trace, func(p [2]float64) complex128 { return complex(p[0], p[1]) })
		})
	})
	r.Spans = convert(j.Spans, func(s jsonSpan) telemetry.Span {
		return telemetry.Span{
			ID: telemetry.SpanID(s.ID), Parent: telemetry.SpanID(s.Parent), Stage: telemetry.Stage(s.Stage),
			Device: s.Device, Start: time.Unix(0, s.StartUnixNano), Duration: time.Duration(s.DurationNs),
		}
	})
	return r
}

// TestReferenceKeysAreTheCodecs: the reference's json keys are the names
// the codec matches, in the order it writes them.
func TestReferenceKeysAreTheCodecs(t *testing.T) {
	keys := func(typ reflect.Type) []string {
		var out []string
		for i := range typ.NumField() {
			out = append(out, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		return out
	}
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[jsonRequest](), requestFields},
		{reflect.TypeFor[jsonResponse](), responseFields},
		{reflect.TypeFor[jsonSpan](), spanFields},
	} {
		if got := keys(tc.typ); !slices.Equal(got, tc.want) {
			t.Errorf("%v keys %q, the codec's %q", tc.typ, got, tc.want)
		}
	}
}

// wireCodecSeeds are frames of every shape the protocol carries, and lines
// that probe where a hand-written JSON reader can part from encoding/json.
var wireCodecSeeds = []string{
	`{"op":"register","id":"x@1","program":"define void @m() #0 {\n}\n","epoch":1}`,
	`{"op":"submit","id":"rabi","device":"tiny-1","pool":"p","shots":16,"priority":2,"timeout_ms":50,"meas_level":"kerneled","meas_return":"avg","trace_id":"abc"}`,
	// An older client's submit frame: "tag" is no field, so it is skipped.
	`{"op":"submit","id":"rabi","device":"tiny-1","shots":16,"tag":"calibration","TAG":{"a":[1]}}`,
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
	// An older client's template fields: "params" and "bindings" are no
	// fields, so they are skipped.
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
	// Every stage telemetry knows, one it does not, and spans without a
	// start, decoded fresh and over spans that had one.
	`{"spans":[{"id":1,"stage":"compile"},{"id":2,"stage":"cache-hit"},{"id":3,"stage":"cache-miss"},{"id":4,"stage":"bind"},` +
		`{"id":5,"stage":"queue-wait"},{"id":6,"stage":"dispatch"},{"id":7,"stage":"device-execute"},{"id":8,"stage":"readout-post"}]}`,
	`{"spans":[{"id":1,"stage":"calibrate","start_unix_nano":-5}]}`, `{"spans":[{"id":1,"stage":"Dispatch"},null,{}]}`,
	`{"spans":[{"id":1,"start_unix_nano":9},{"id":2}],"spans":[{"stage":"bind"},{"id":3},{"id":4}]}`,
	// Measurement levels and returns by name: other letter case, unknown
	// names and null, alone and after a known one.
	`{"meas_level":"Kerneled"}`, `{"meas_level":"RAW"}`, `{"meas_return":"Avg"}`, `{"meas_return":"SINGLE"}`,
	`{"meas_level":"integrated"}`, `{"meas_return":"mean"}`, `{"meas_level":"raw","meas_return":"average"}`,
	`{"meas_level":null,"meas_return":null}`, `{"meas_level":"raw","meas_level":null,"meas_return":"avg","meas_return":null}`,
	`{"meas_level":"discriminated","meas_return":"single"}`, `{"meas_level":"","meas_return":""}`, `{"meas_level":1}`,
	`{"MEAS_LEVEL":"kerneled","Meas_Return":"avg"}`, `{"meas_level":"k\u0065rneled"}`,
	`{"shots":4,"duration_seconds":0,"meas_level":"discriminated","bits":[0],"iq":[[[1,2]]],"raw":[[[[3,4]]]]}`,
	`{"shots":4,"duration_seconds":0,"meas_level":"kerneled","bits":[0],"iq":[[[1,2]]],"raw":[[[[3,4]]]]}`,
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
		var refReq jsonRequest
		var gotReq remoteRequest
		werr, gerr := json.Unmarshal(line, &refReq), parseRequest(line, &gotReq)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("request %q: encoding/json says %v, the codec %v", input, werr, gerr)
		}
		if werr == nil {
			if wantReq := requestFromJSON(&refReq); !reflect.DeepEqual(gotReq, wantReq) {
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
			if want := responseFromJSON(&ref); !reflect.DeepEqual(gotResp, want) {
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
	want, werr := json.Marshal(requestToJSON(r))
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
	want, werr := json.Marshal(responseToJSON(r))
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
		var ref jsonRequest
		if err := json.Unmarshal([]byte(tc.line), &ref); (err == nil) != tc.ok {
			t.Fatalf("encoding/json on depth %d: %v", strings.Count(tc.line, "["), err)
		}
		var req remoteRequest
		if err := parseRequest([]byte(tc.line), &req); (err == nil) != tc.ok {
			t.Fatalf("codec on depth %d: %v", strings.Count(tc.line, "["), err)
		}
		var resp remoteResponse
		if err := parseResponse([]byte(tc.line), &resp); (err == nil) != tc.ok {
			t.Fatalf("codec response on depth %d: %v", strings.Count(tc.line, "["), err)
		}
	}
}

// TestKnownStageDecodesWithoutAllocating: a span's stage is decoded
// through telemetry's closed set of stages, so a stage that set knows
// allocates no string, and only a stage it does not know costs one.
func TestKnownStageDecodesWithoutAllocating(t *testing.T) {
	for _, tc := range []struct {
		stage  string
		allocs float64
	}{{"queue-wait", 0}, {"device-execute", 0}, {"calibrate", 1}} {
		line := []byte(`{"id":2,"parent":1,"stage":"` + tc.stage + `","start_unix_nano":5,"duration_ns":7}`)
		var s telemetry.Span
		n := testing.AllocsPerRun(100, func() {
			d := wireDecoder{data: line}
			if err := d.span(&s); err != nil {
				t.Fatal(err)
			}
		})
		if n != tc.allocs || string(s.Stage) != tc.stage {
			t.Errorf("stage %q decodes to %q with %v allocations, want %v", tc.stage, s.Stage, n, tc.allocs)
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

// level and ret are a measurement level and return, now and then one that
// has no name.
func (g *valueGen) level() readout.MeasLevel { return readout.MeasLevel(int(g.byte()%4) - 1) }
func (g *valueGen) ret() readout.MeasReturn  { return readout.MeasReturn(int(g.byte()%3) - 1) }

func (g *valueGen) request() remoteRequest {
	r := remoteRequest{
		Op: g.str(), ID: g.str(), Program: g.str(),
		Epoch: g.int(), Device: g.str(), TimeoutMs: g.int(),
	}
	r.Pool, r.Shots, r.Priority = g.str(), int(g.int()), int(g.int())
	r.MeasLevel, r.MeasReturn, r.TraceID = g.level(), g.ret(), g.str()
	return r
}

func (g *valueGen) response() remoteResponse {
	raws := []string{"", `{"a":[1,2]}`, " { \"a\" : \"<&>\u2028\" , \"b\" : [ ] } ", `nul`, `{"a":1}x`, `"s"`, `[1,]`}
	pair := func() [2]float64 { return [2]float64{g.float(), g.float()} }
	r := remoteResponse{
		Error: g.str(), ErrorKind: g.str(),
		Result: readout.Result{
			Counts: genMap(g, func() uint64 { return uint64(g.int()) }, func() int { return int(g.int()) }),
			Shots:  int(g.int()), DurationSeconds: g.float(),
			MeasLevel: g.level(),
			Bits:      genSlice(g, func() int { return int(g.int()) }),
			IQ: genSlice(g, func() []readout.IQ {
				return genSlice(g, func() readout.IQ { p := pair(); return readout.IQ{I: p[0], Q: p[1]} })
			}),
			Raw: genSlice(g, func() [][]complex128 {
				return genSlice(g, func() []complex128 {
					return genSlice(g, func() complex128 { p := pair(); return complex(p[0], p[1]) })
				})
			}),
		},
		Spans: genSlice(g, func() telemetry.Span {
			return telemetry.Span{
				ID: telemetry.SpanID(g.int()), Parent: telemetry.SpanID(g.int()), Stage: telemetry.Stage(g.str()),
				Device: g.str(), Start: time.Unix(0, g.int()), Duration: time.Duration(g.int()),
			}
		}),
	}
	if raw := raws[int(g.byte())%len(raws)]; raw != "" {
		r.Telemetry = json.RawMessage(raw)
	}
	return r
}
