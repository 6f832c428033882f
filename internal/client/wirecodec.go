package client

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// The wire codec: the one writer and the one reader of a frame, which is a
// JSON object and a newline. appendRequest and appendResponse write the
// bytes encoding/json's Marshal writes for the same value, plus the newline
// (field order, omitempty, float format, HTML-safe escapes, map keys sorted
// as strings); parseRequest and parseResponse accept exactly the lines its
// Unmarshal accepts and decode the same values — whitespace, escapes,
// unknown fields, case-folded keys and duplicate keys included (a repeated
// key decodes into what the earlier one left, in place, as Unmarshal
// does). IQ points and raw samples go straight between readout.IQ or
// complex128 and their [i, q] pairs. FuzzWireCodec holds both directions to
// the encoding/json reference.

// maxWireDepth is encoding/json's nesting limit: a frame nested deeper is
// malformed.
const maxWireDepth = 10000

// errWireValue is the failure to encode what encoding/json refuses too: a NaN
// or infinite number, or telemetry that is not one JSON value.
var errWireValue = errors.New("client: wire: unsupported value")

// appendRequest appends r's frame to dst.
func appendRequest(dst []byte, r *remoteRequest) ([]byte, error) {
	e := wireEncoder{b: dst}
	o := e.open()
	e.key(o, "op")
	e.str(r.Op)
	e.optStr(o, "id", r.ID)
	e.optStr(o, "program", r.Program)
	if len(r.Params) > 0 {
		e.key(o, "params")
		e.b = append(e.b, '[')
		for i, p := range r.Params {
			e.sep(i)
			po := e.open()
			e.key(po, "name")
			e.str(p.Name)
			e.key(po, "min")
			e.float(p.Min)
			e.key(po, "max")
			e.float(p.Max)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.optInt(o, "epoch", r.Epoch)
	if len(r.Bindings) > 0 {
		e.key(o, "bindings")
		e.floatMap(r.Bindings)
	}
	e.optStr(o, "device", r.Device)
	e.optStr(o, "pool", r.Pool)
	e.optInt(o, "shots", int64(r.Shots))
	e.optInt(o, "priority", int64(r.Priority))
	e.optInt(o, "timeout_ms", r.TimeoutMs)
	e.optStr(o, "meas_level", r.MeasLevel)
	e.optStr(o, "meas_return", r.MeasReturn)
	e.optStr(o, "trace_id", r.TraceID)
	return e.end()
}

// appendResponse appends r's frame to dst.
func appendResponse(dst []byte, r *remoteResponse) ([]byte, error) {
	e := wireEncoder{b: dst}
	o := e.open()
	e.optStr(o, "error", r.Error)
	e.optStr(o, "error_kind", r.ErrorKind)
	if len(r.Counts) > 0 {
		e.key(o, "counts")
		e.counts(r.Counts)
	}
	e.key(o, "shots")
	e.b = strconv.AppendInt(e.b, int64(r.Shots), 10)
	e.key(o, "duration_seconds")
	e.float(r.DurationSeconds)
	e.optStr(o, "meas_level", r.MeasLevel)
	if len(r.Bits) > 0 {
		e.key(o, "bits")
		e.b = append(e.b, '[')
		for i, b := range r.Bits {
			e.sep(i)
			e.b = strconv.AppendInt(e.b, int64(b), 10)
		}
		e.b = append(e.b, ']')
	}
	if len(r.IQ) > 0 {
		e.key(o, "iq")
		e.b = append(e.b, '[')
		for k, row := range r.IQ {
			if e.next(k, row == nil) {
				for i, p := range row {
					e.sep(i)
					e.pair(p.I, p.Q)
				}
				e.b = append(e.b, ']')
			}
		}
		e.b = append(e.b, ']')
	}
	if len(r.Raw) > 0 {
		e.key(o, "raw")
		e.b = append(e.b, '[')
		for k, shot := range r.Raw {
			if e.next(k, shot == nil) {
				for i, trace := range shot {
					if e.next(i, trace == nil) {
						for j, v := range trace {
							e.sep(j)
							e.pair(real(v), imag(v))
						}
						e.b = append(e.b, ']')
					}
				}
				e.b = append(e.b, ']')
			}
		}
		e.b = append(e.b, ']')
	}
	if len(r.Spans) > 0 {
		e.key(o, "spans")
		e.b = append(e.b, '[')
		for i := range r.Spans {
			e.sep(i)
			e.span(&r.Spans[i])
		}
		e.b = append(e.b, ']')
	}
	if len(r.Telemetry) > 0 {
		e.key(o, "telemetry")
		e.compact(r.Telemetry)
	}
	return e.end()
}

// wireEncoder appends one frame to b. err is the first value encoding/json
// would refuse; the frame is not to be sent once it is set.
type wireEncoder struct {
	b   []byte
	err error
}

// open starts an object and returns its start, for key.
func (e *wireEncoder) open() int {
	e.b = append(e.b, '{')
	return len(e.b)
}

// key writes a field's separator — none before the first field of the
// object that starts at start — and its quoted name and colon.
func (e *wireEncoder) key(start int, name string) {
	if len(e.b) > start {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

// end closes the frame's object and line.
func (e *wireEncoder) end() ([]byte, error) {
	e.b = append(e.b, '}', '\n')
	return e.b, e.err
}

// optStr writes an omitempty string field.
func (e *wireEncoder) optStr(start int, name, v string) {
	if v != "" {
		e.key(start, name)
		e.str(v)
	}
}

// optInt writes an omitempty integer field.
func (e *wireEncoder) optInt(start int, name string, v int64) {
	if v != 0 {
		e.key(start, name)
		e.b = strconv.AppendInt(e.b, v, 10)
	}
}

// str writes s quoted as encoding/json quotes it: the short escapes, \u00XX
// for other control bytes and for <, > and &, the escaped U+FFFD for each
// byte of invalid UTF-8, and escapes for U+2028 and U+2029.
func (e *wireEncoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(append(b, s[start:]...), '"')
}

// float writes f as encoding/json does: the shortest decimal that reads
// back as f, in exponent form (without a leading zero in the exponent)
// below 1e-6 and from 1e21 up in magnitude.
func (e *wireEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("%w: %v", errWireValue, f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// pair writes one IQ point or raw sample, [i, q].
func (e *wireEncoder) pair(i, q float64) {
	e.b = append(e.b, '[')
	e.float(i)
	e.b = append(e.b, ',')
	e.float(q)
	e.b = append(e.b, ']')
}

// sep writes the comma before array element i, none before the first.
func (e *wireEncoder) sep(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// next starts array element i that is itself an array: null when it is
// nil, else its opening bracket, which the caller closes. It reports
// whether the caller is to write the elements.
func (e *wireEncoder) next(i int, isNil bool) bool {
	e.sep(i)
	if isNil {
		e.b = append(e.b, "null"...)
		return false
	}
	e.b = append(e.b, '[')
	return true
}

// counts writes the counts map: decimal keys, sorted as strings.
func (e *wireEncoder) counts(m map[uint64]int) {
	var arr [16]uint64
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b uint64) int {
		var x, y [20]byte
		return bytes.Compare(strconv.AppendUint(x[:0], a, 10), strconv.AppendUint(y[:0], b, 10))
	})
	o := e.open()
	for _, k := range keys {
		if len(e.b) > o {
			e.b = append(e.b, ',')
		}
		e.b = append(strconv.AppendUint(append(e.b, '"'), k, 10), '"', ':')
		e.b = strconv.AppendInt(e.b, int64(m[k]), 10)
	}
	e.b = append(e.b, '}')
}

// floatMap writes a string-keyed map of numbers, keys sorted.
func (e *wireEncoder) floatMap(m map[string]float64) {
	o := e.open()
	for _, k := range slices.Sorted(maps.Keys(m)) {
		if len(e.b) > o {
			e.b = append(e.b, ',')
		}
		e.str(k)
		e.b = append(e.b, ':')
		e.float(m[k])
	}
	e.b = append(e.b, '}')
}

// span writes one server-side span.
func (e *wireEncoder) span(s *telemetry.SpanWire) {
	o := e.open()
	e.key(o, "id")
	e.b = strconv.AppendInt(e.b, s.ID, 10)
	e.optInt(o, "parent", s.Parent)
	e.key(o, "stage")
	e.str(s.Stage)
	e.optStr(o, "device", s.Device)
	e.key(o, "start_unix_nano")
	e.b = strconv.AppendInt(e.b, s.StartUnixNano, 10)
	e.key(o, "duration_ns")
	e.b = strconv.AppendInt(e.b, s.DurationNs, 10)
	e.b = append(e.b, '}')
}

// compact writes raw, which must be one JSON value, as encoding/json writes a
// json.RawMessage: without the space between tokens, and with <, >, & and
// U+2028 / U+2029 escaped.
func (e *wireEncoder) compact(raw []byte) {
	d := wireDecoder{data: raw}
	err := d.skip()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		if e.err == nil {
			e.err = fmt.Errorf("%w: telemetry: %v", errWireValue, err)
		}
		return
	}
	const hex = "0123456789abcdef"
	b, inString, escaped := e.b, false, false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			b = append(b, '\\', 'u', '2', '0', '2', hex[raw[i+2]&0xF])
			i += 2
			continue
		case inString:
			inString = escaped || c != '"'
			escaped = !escaped && c == '\\'
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		}
		b = append(b, c)
	}
	e.b = b
}

// parseRequest decodes one request line into r, which should be zero.
func parseRequest(line []byte, r *remoteRequest) error {
	d := wireDecoder{data: line}
	if err := d.request(r); err != nil {
		return err
	}
	return d.end()
}

// parseResponse decodes one response line into r, which should be zero.
func parseResponse(line []byte, r *remoteResponse) error {
	d := wireDecoder{data: line}
	if err := d.response(r); err != nil {
		return err
	}
	return d.end()
}

// requestFields and responseFields are the frames' JSON names, the keys a
// member may select exactly or under case folding.
var (
	requestFields = []string{"op", "id", "program", "params", "epoch", "bindings", "device", "pool",
		"shots", "priority", "timeout_ms", "meas_level", "meas_return", "trace_id"}
	responseFields = []string{"error", "error_kind", "counts", "shots", "duration_seconds",
		"meas_level", "bits", "iq", "raw", "spans", "telemetry"}
	paramFields = []string{"name", "min", "max"}
	spanFields  = []string{"id", "parent", "stage", "device", "start_unix_nano", "duration_ns"}
)

// wireDecoder reads one frame out of data. It checks the syntax encoding/json
// checks, nesting depth included, as it decodes, and returns at the first
// thing Unmarshal would refuse: a syntax error, or a value of the wrong type
// for its field.
type wireDecoder struct {
	data  []byte
	pos   int
	depth int
	// buf holds the last string that needed unquoting.
	buf []byte
}

// field returns the name among names that key selects: the exact match,
// else the one equal to key under Unicode case folding, or "".
func field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// request decodes a request frame's object into r; unknown keys are
// skipped.
func (d *wireDecoder) request(r *remoteRequest) error {
	return d.object(func(key []byte) error {
		switch field(key, requestFields) {
		case "op":
			return d.string(&r.Op)
		case "id":
			return d.string(&r.ID)
		case "program":
			return d.string(&r.Program)
		case "params":
			return decodeSlice(d, &r.Params, (*wireDecoder).param)
		case "epoch":
			return decodeInt(d, &r.Epoch)
		case "bindings":
			return d.bindings(&r.Bindings)
		case "device":
			return d.string(&r.Device)
		case "pool":
			return d.string(&r.Pool)
		case "shots":
			return decodeInt(d, &r.Shots)
		case "priority":
			return decodeInt(d, &r.Priority)
		case "timeout_ms":
			return decodeInt(d, &r.TimeoutMs)
		case "meas_level":
			return d.string(&r.MeasLevel)
		case "meas_return":
			return d.string(&r.MeasReturn)
		case "trace_id":
			return d.string(&r.TraceID)
		}
		return d.skip()
	})
}

// response decodes a response frame's object into r; telemetry keeps the
// value's own bytes.
func (d *wireDecoder) response(r *remoteResponse) error {
	return d.object(func(key []byte) error {
		switch field(key, responseFields) {
		case "error":
			return d.string(&r.Error)
		case "error_kind":
			return d.string(&r.ErrorKind)
		case "counts":
			return d.counts(&r.Counts)
		case "shots":
			return decodeInt(d, &r.Shots)
		case "duration_seconds":
			return d.float(&r.DurationSeconds)
		case "meas_level":
			return d.string(&r.MeasLevel)
		case "bits":
			return decodeSlice(d, &r.Bits, decodeInt[int])
		case "iq":
			return decodeSlice(d, &r.IQ, func(d *wireDecoder, row *[]readout.IQ) error {
				return decodeSlice(d, row, func(d *wireDecoder, p *readout.IQ) error { return d.pair(&p.I, &p.Q) })
			})
		case "raw":
			return decodeSlice(d, &r.Raw, func(d *wireDecoder, shot *[][]complex128) error {
				return decodeSlice(d, shot, func(d *wireDecoder, trace *[]complex128) error {
					return decodeSlice(d, trace, (*wireDecoder).sample)
				})
			})
		case "spans":
			return decodeSlice(d, &r.Spans, (*wireDecoder).span)
		case "telemetry":
			start := d.skipSpace()
			if err := d.skip(); err != nil {
				return err
			}
			r.Telemetry = append(r.Telemetry[:0], d.data[start:d.pos]...)
			return nil
		}
		return d.skip()
	})
}

// param decodes one declared parameter of a register frame.
func (d *wireDecoder) param(p *ptemplate.Param) error {
	return d.object(func(key []byte) error {
		switch field(key, paramFields) {
		case "name":
			return d.string(&p.Name)
		case "min":
			return d.float(&p.Min)
		case "max":
			return d.float(&p.Max)
		}
		return d.skip()
	})
}

// span decodes one server-side span.
func (d *wireDecoder) span(s *telemetry.SpanWire) error {
	return d.object(func(key []byte) error {
		switch field(key, spanFields) {
		case "id":
			return decodeInt(d, &s.ID)
		case "parent":
			return decodeInt(d, &s.Parent)
		case "stage":
			return d.string(&s.Stage)
		case "device":
			return d.string(&s.Device)
		case "start_unix_nano":
			return decodeInt(d, &s.StartUnixNano)
		case "duration_ns":
			return decodeInt(d, &s.DurationNs)
		}
		return d.skip()
	})
}

// object decodes an object into a struct: member is called for each key
// with the decoder at the key's value, which it must consume. null leaves
// the struct as it is.
func (d *wireDecoder) object(member func(key []byte) error) error {
	if null, err := d.begin('{'); null || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
}

// decodeSlice decodes an array into *s as encoding/json does: element i is
// decoded into what the backing array holds at i when i is within its
// capacity, the length becomes the element count, an empty array is a new
// empty slice and null is nil.
func decodeSlice[E any](d *wireDecoder, s *[]E, elem func(*wireDecoder, *E) error) error {
	null, err := d.begin('[')
	if err != nil {
		return err
	}
	if null {
		*s = nil
		return nil
	}
	v, i := *s, 0
	for ; ; i++ {
		ok, err := d.element(i == 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				var zero E
				v = append(v, zero)
			}
		}
		if err := elem(d, &v[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		v = []E{}
	}
	*s = v[:i]
	return nil
}

// counts decodes the counts map, whose keys must be whole decimal uint64s.
// As for any map, null is nil, and each member's value is decoded from zero
// and stored over any earlier one.
func (d *wireDecoder) counts(m *map[uint64]int) error {
	if d.peek() == 'n' {
		*m = nil
		return d.literal("null")
	}
	if *m == nil {
		*m = map[uint64]int{} // on a line that is refused, a value nobody reads
	}
	return d.object(func(key []byte) error {
		k, ok := parseUint(key)
		if !ok {
			return d.mismatch("uint64 key")
		}
		var v int
		if err := decodeInt(d, &v); err != nil {
			return err
		}
		(*m)[k] = v
		return nil
	})
}

// bindings decodes a map of numbers as counts decodes counts.
func (d *wireDecoder) bindings(m *map[string]float64) error {
	if d.peek() == 'n' {
		*m = nil
		return d.literal("null")
	}
	if *m == nil {
		*m = map[string]float64{}
	}
	return d.object(func(key []byte) error {
		k := string(key)
		var v float64
		if err := d.float(&v); err != nil {
			return err
		}
		(*m)[k] = v
		return nil
	})
}

// string decodes a string; null leaves it as it is.
func (d *wireDecoder) string(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch("string")
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = intern(s)
	return nil
}

// intern returns the protocol's recurring words without allocating.
func intern(s []byte) string {
	switch string(s) {
	case "submit":
		return "submit"
	case "register":
		return "register"
	case "kerneled":
		return "kerneled"
	case "raw":
		return "raw"
	case "single":
		return "single"
	case "avg":
		return "avg"
	}
	return string(s)
}

// decodeInt decodes an integer: a number with no fraction or exponent that
// fits T. null leaves it as it is.
func decodeInt[T int | int64](d *wireDecoder, dst *T) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	n, ok := parseUint(lit)
	if !ok || n > 1<<63 || (n == 1<<63 && !neg) {
		return d.mismatch("integer")
	}
	v := int64(n) // 1<<63 wraps to math.MinInt64, which only neg lets through
	if neg {
		v = -v
	}
	if int64(T(v)) != v {
		return d.mismatch("integer")
	}
	*dst = T(v)
	return nil
}

// parseUint reads s as strconv.ParseUint(s, 10, 64) does.
func parseUint(s []byte) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		digit := uint64(c - '0')
		if n > (math.MaxUint64-digit)/10 {
			return 0, false
		}
		n = n*10 + digit
	}
	return n, true
}

// float decodes a number that reads as a finite float64; null leaves it as
// it is.
func (d *wireDecoder) float(dst *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.mismatch("float64")
	}
	*dst = f
	return nil
}

// pair decodes an [i, q] pair as encoding/json decodes a [2]float64: null
// leaves it as it is, missing elements are zero and extra ones skipped.
func (d *wireDecoder) pair(x, y *float64) error {
	if null, err := d.begin('['); null || err != nil {
		return err
	}
	i := 0
	for ; ; i++ {
		ok, err := d.element(i == 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch i {
		case 0:
			err = d.float(x)
		case 1:
			err = d.float(y)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
	if i < 1 {
		*x = 0
	}
	if i < 2 {
		*y = 0
	}
	return nil
}

// sample decodes one raw sample from its [i, q] pair.
func (d *wireDecoder) sample(v *complex128) error {
	re, im := real(*v), imag(*v)
	if err := d.pair(&re, &im); err != nil {
		return err
	}
	*v = complex(re, im)
	return nil
}

// skipSpace moves past JSON whitespace and returns the position.
func (d *wireDecoder) skipSpace() int {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return d.pos
		}
	}
	return d.pos
}

// peek returns the next byte after whitespace, 0 at the end.
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos]
	}
	if d.skipSpace() < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// end checks that only whitespace follows the frame's value.
func (d *wireDecoder) end() error {
	if d.skipSpace() != len(d.data) {
		return d.syntax("after top-level value")
	}
	return nil
}

// begin starts a value that must be null or an object or array opening
// with c: it consumes a null and reports it, or enters the value.
func (d *wireDecoder) begin(c byte) (null bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case c:
		return false, d.enter()
	}
	return false, d.mismatch("object or array")
}

// enter consumes the '{' or '[' at the decoder and counts its depth.
func (d *wireDecoder) enter() error {
	d.pos++
	if d.depth++; d.depth > maxWireDepth {
		return d.syntax("nesting past the maximum depth")
	}
	return nil
}

// member steps to the next member of an object entered with enter: it
// returns the member's key (valid until the next string is read) with the
// decoder at the member's value, or ok false past the closing brace.
func (d *wireDecoder) member(first bool) (key []byte, ok bool, err error) {
	c := d.peek()
	if c == '}' {
		d.pos++
		d.depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, d.syntax("after object member")
		}
		d.pos++
		c = d.peek()
	}
	if c != '"' {
		return nil, false, d.syntax("looking for an object key")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.peek() != ':' {
		return nil, false, d.syntax("after object key")
	}
	d.pos++
	return key, true, nil
}

// element steps to the next element of an array entered with enter, or
// returns false past the closing bracket.
func (d *wireDecoder) element(first bool) (bool, error) {
	c := d.peek()
	if c == ']' && first {
		d.pos++
		d.depth--
		return false, nil
	}
	if first {
		return true, nil
	}
	switch c {
	case ']':
		d.pos++
		d.depth--
		return false, nil
	case ',':
		d.pos++
		return true, nil
	}
	return false, d.syntax("after array element")
}

// skip consumes one value of any type, checking its syntax.
func (d *wireDecoder) skip() error {
	switch c := d.peek(); c {
	case '{':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := d.member(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := d.element(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.scanString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// literal consumes word, which must be next.
func (d *wireDecoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return d.syntax("in literal")
	}
	d.pos += len(word)
	return nil
}

// number consumes a number token and returns its text.
func (d *wireDecoder) number() ([]byte, error) {
	s, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		digits()
	default:
		return nil, d.syntax("looking for a value")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return nil, d.syntax("after decimal point")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return nil, d.syntax("in exponent")
		}
	}
	lit := s[d.pos:i]
	d.pos = i
	return lit, nil
}

// str consumes a string token and returns its value: the token's own bytes
// when it holds no escape and only valid UTF-8, else the unquoted bytes in
// d.buf.
func (d *wireDecoder) str() ([]byte, error) {
	start := d.pos + 1
	end, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if plain {
		return d.data[start:end], nil
	}
	d.buf = unquote(d.buf[:0], d.data[start:end])
	return d.buf, nil
}

// scanString consumes a string token, checking its syntax. It returns the
// index of the closing quote and whether the contents need no unquoting.
func (d *wireDecoder) scanString() (end int, plain bool, err error) {
	s, i := d.data, d.pos+1
	plain = true
	for i < len(s) {
		if c := s[i]; c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' {
			i++
			continue
		}
		switch c := s[i]; {
		case c == '"':
			d.pos = i + 1
			return i, plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(s) {
				return 0, false, d.syntax("in string escape")
			}
			switch s[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if _, ok := hex4(s[i+2:]); !ok {
					return 0, false, d.syntax("in \\u escape")
				}
				i += 6
			default:
				return 0, false, d.syntax("in string escape")
			}
		case c < ' ':
			return 0, false, d.syntax("in string literal")
		case c < utf8.RuneSelf || !plain:
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			plain = r != utf8.RuneError || n > 1
			i += n
		}
	}
	return 0, false, d.syntax("in string literal")
}

// hex4 reads the four hex digits of a \u escape.
func hex4(s []byte) (rune, bool) {
	if len(s) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unquote appends the value of a string token's checked contents s to b,
// as encoding/json unquotes: escapes resolved, a surrogate pair joined, a
// lone surrogate and each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(b, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch s[i+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, _ := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2, _ = hex4(s[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// syntax is a syntax error at the decoder's position.
func (d *wireDecoder) syntax(where string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input (%s)", where)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], where, d.pos)
}

// mismatch is a value of the wrong type for its field.
func (d *wireDecoder) mismatch(want string) error {
	if d.pos >= len(d.data) {
		return d.syntax("looking for a value")
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", d.pos, want)
}
