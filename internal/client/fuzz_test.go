package client

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/readout"
)

// wireKind reports whether kind is an error_kind the server may put on the
// wire: a row of wireErrorKinds, or none.
func wireKind(kind string) bool {
	for _, k := range wireErrorKinds {
		if k.kind == kind {
			return true
		}
	}
	return kind == ""
}

// tinyStack is a client over one-qubit devices whose jobs take
// microseconds, one per name, each seeded by its position in names.
func tinyStack(tb testing.TB, names ...string) *Client {
	tb.Helper()
	drv := qdmi.NewDriver()
	for i, name := range names {
		dev, err := devices.New(devices.Config{
			Name: name, Technology: "simulator", Version: "tiny-1.0",
			SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxSamples: 1 << 12,
			DriveRabiHz: 250e6, GateSamples: 8, ReadoutSamples: 8,
			ReadoutFidelity: 0.99, Seed: int64(i + 1), MaxShots: 64,
			Sites: []devices.SiteConfig{{Dim: 2, FreqHz: 5e9, T1Seconds: 1e-3, T2Seconds: 1e-3}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := drv.RegisterDevice(dev); err != nil {
			tb.Fatal(err)
		}
	}
	c := New(drv.OpenSession())
	tb.Cleanup(c.Close)
	return c
}

// fuzzServer is a Server's request handler over a one-qubit device whose
// jobs take microseconds, without a listener: handleLine is what a
// connection's read loop calls.
func fuzzServer(f *testing.F) (*Server, *Client) {
	c := tinyStack(f, "tiny-1")
	srv := newServer(c, nil, WithServerMaxJobTime(2*time.Second))
	f.Cleanup(srv.cancel)
	return srv, c
}

// FuzzServerRequest drives arbitrary request lines — one connection's worth
// per input, sharing one program store — through the server's handler
// against a live device. Whatever arrives, the handler answers: a response
// that encodes, whose error (if any) has a kind the adapter knows or none,
// with the store inside its bound; it never panics.
func FuzzServerRequest(f *testing.F) {
	srv, c := fuzzServer(f)
	x := qpi.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
	if err := x.End(); err != nil {
		f.Fatal(err)
	}
	payload, _, err := c.Compile(x, "tiny-1")
	if err != nil {
		f.Fatal(err)
	}
	rabi := qpi.NewCircuit("rabi", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := rabi.End(); err != nil {
		f.Fatal(err)
	}
	tpl, err := ptemplate.New(rabi, ptemplate.Param{Name: "theta", Min: 1e-3, Max: 3.14})
	if err != nil {
		f.Fatal(err)
	}
	compiled, err := c.CompileTemplate(tpl, "tiny-1")
	if err != nil {
		f.Fatal(err)
	}
	lines := func(reqs ...remoteRequest) string {
		var sb strings.Builder
		for _, req := range reqs {
			line, err := appendRequest(nil, &req)
			if err != nil {
				f.Fatal(err)
			}
			sb.Write(line)
		}
		return sb.String()
	}
	f.Add(lines(
		remoteRequest{Op: "register", ID: "x@1", Program: string(payload), Epoch: 1},
		remoteRequest{Op: "submit", ID: "x@1", Device: "tiny-1", SubmitOptions: SubmitOptions{Shots: 4}},
		remoteRequest{Op: "submit", ID: "x@1", Device: "tiny-1", TimeoutMs: 50,
			SubmitOptions: SubmitOptions{Shots: 4, MeasLevel: readout.LevelKerneled, MeasReturn: readout.ReturnAverage}},
	))
	f.Add(lines(
		// A template's text has slots: refused at register, so the submits name
		// a program the connection does not hold.
		remoteRequest{Op: "register", ID: "rabi", Program: string(compiled.Text())},
		remoteRequest{Op: "submit", ID: "rabi", Device: "tiny-1", SubmitOptions: SubmitOptions{Shots: 2}},
		remoteRequest{Op: "submit", ID: "rabi", SubmitOptions: SubmitOptions{Pool: "nowhere", Shots: 2}},
	))
	// Enough registrations to push the store past its bound.
	var many []remoteRequest
	for i := 0; i < maxStoredPrograms+6; i++ {
		many = append(many, remoteRequest{Op: "register", ID: fmt.Sprint("p", i), Program: "define void @m() #0 {\n}\n"})
	}
	f.Add(lines(append(many, remoteRequest{Op: "submit", ID: "p0", Device: "tiny-1", SubmitOptions: SubmitOptions{Shots: 1}})...))
	f.Add(lines(remoteRequest{Op: "telemetry"}, remoteRequest{Op: "submit", ID: "never"}, remoteRequest{Op: "register_template"}))
	f.Add("{not json\n\n{}\n" + `{"op":"register","id":"g","program":"garbage"}` + "\n" + `{"op":"submit","shots":-1}`)

	f.Fuzz(func(t *testing.T, input string) {
		store := &programStore{byID: map[string]*ptemplate.Compiled{}}
		for _, line := range bytes.Split([]byte(input), []byte("\n")) {
			resp := srv.handleLine(line, store)
			if _, err := appendResponse(nil, &resp); err != nil {
				t.Fatalf("response to %q does not encode: %v", line, err)
			}
			if !wireKind(resp.ErrorKind) || (resp.Error == "" && resp.ErrorKind != "") {
				t.Fatalf("response to %q: error %q with kind %q", line, resp.Error, resp.ErrorKind)
			}
			if len(store.byID) > maxStoredPrograms || len(store.order) != len(store.byID) {
				t.Fatalf("after %q the store holds %d programs in %d slots, bound %d",
					line, len(store.byID), len(store.order), maxStoredPrograms)
			}
		}
	})
}

// FuzzResponseLine drives arbitrary response lines through the adapter's
// decoder: decodeResponse, then resultFromWire at every measurement level a
// caller may have asked for. Whatever arrives, it answers a result or an
// error and never panics, and a result carries the level it was asked for
// and one IQ row per row on the wire. Seeded with one server response per
// measurement level.
func FuzzResponseLine(f *testing.F) {
	srv, c := fuzzServer(f)
	x := qpi.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
	if err := x.End(); err != nil {
		f.Fatal(err)
	}
	payload, _, err := c.Compile(x, "tiny-1")
	if err != nil {
		f.Fatal(err)
	}
	store := &programStore{byID: map[string]*ptemplate.Compiled{}}
	srv.handleLine([]byte(`{"op":"register","id":"x","program":`+strconv.Quote(string(payload))+`}`), store)
	levels := []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw}
	for _, level := range levels {
		req, err := appendRequest(nil, &remoteRequest{Op: "submit", ID: "x", Device: "tiny-1", SubmitOptions: SubmitOptions{Shots: 3, MeasLevel: level}})
		if err != nil {
			f.Fatal(err)
		}
		resp := srv.handleLine(req, store)
		if resp.Error != "" {
			f.Fatalf("%s seed: %s", level, resp.Error)
		}
		line, err := appendResponse(nil, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.TrimSuffix(string(line), "\n"))
	}
	f.Add(`{"error":"queue full","error_kind":"overloaded"}`)
	f.Add(`{"counts":{"x":1}}`)

	f.Fuzz(func(t *testing.T, line string) {
		resp, err := decodeResponse([]byte(line))
		if err != nil {
			return
		}
		for _, level := range levels {
			res, err := resultFromWire(resp, SubmitOptions{MeasLevel: level})
			if err != nil {
				continue
			}
			if res.Counts == nil {
				t.Fatalf("%s result of %q has nil counts", level, line)
			}
			if level != readout.LevelDiscriminated && (res.MeasLevel != level || len(res.IQ) != len(resp.IQ)) {
				t.Fatalf("%s result of %q: level %s, %d IQ rows for %d on the wire", level, line, res.MeasLevel, len(res.IQ), len(resp.IQ))
			}
		}
	})
}

// FuzzParseProgram drives arbitrary text through the interpreted adapter's
// parser, a decoder of bytes the stack did not write. Whatever arrives, it
// never panics, and it answers an error or a finished kernel that carries
// none and records only finite numbers — a NaN angle or frame change is
// rejected where it enters, not by the compiler's backend.
func FuzzParseProgram(f *testing.F) {
	nonFinite := "circuit c 1 1\nrx 0 0.5\nry 0 -4\nrz 0 NaN\nmeasure 0 0\n"
	for _, seed := range []string{
		bellProgram,
		nonFinite,
		"circuit p 1 1\nwaveform w 0.1,0 0.2,0.1\nplay q0-drive w\nframechange q0-drive 5e9 0.1\ndelay q0-drive 8\nbarrier\nmeasure 0 0",
		"circuit c 1 1\nwaveform w x",
		"x 0",
		"",
	} {
		f.Add(seed)
	}
	a := &InterpretedAdapter{}
	if _, err := a.ParseProgram(nonFinite); err == nil {
		f.Fatal("a NaN angle was accepted")
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	f.Fuzz(func(t *testing.T, src string) {
		k, err := a.ParseProgram(src)
		if err != nil {
			if k != nil {
				t.Fatalf("an error (%v) and a kernel", err)
			}
			return
		}
		if !k.Finished() || k.Err() != nil {
			t.Fatalf("accepted kernel: finished %v, error %v", k.Finished(), k.Err())
		}
		for i, op := range k.Ops() {
			nums := append([]float64{op.FrequencyHz, op.PhaseRad}, op.Params...)
			if w, ok := k.LookupWaveform(op.WaveformName); ok && op.Kind == qpi.OpWaveformDef {
				for _, s := range w.Samples {
					nums = append(nums, real(s), imag(s))
				}
			}
			for _, x := range nums {
				if !finite(x) {
					t.Fatalf("accepted kernel: op %d (%v) records %v", i, op.Kind, x)
				}
			}
		}
	})
}
