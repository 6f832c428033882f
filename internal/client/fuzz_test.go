package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// fuzzServer is a Server's request handler over a one-qubit device whose
// jobs take microseconds, without a listener: handleLine is what a
// connection's read loop calls.
func fuzzServer(f *testing.F) (*Server, *Client) {
	dev, err := devices.New(devices.Config{
		Name: "tiny-1", Technology: "simulator", Version: "tiny-1.0",
		SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxSamples: 1 << 12,
		DriveRabiHz: 250e6, GateSamples: 8, ReadoutSamples: 8,
		ReadoutFidelity: 0.99, Seed: 1, MaxShots: 64,
		Sites: []devices.SiteConfig{{Dim: 2, FreqHz: 5e9, T1Seconds: 1e-3, T2Seconds: 1e-3}},
	})
	if err != nil {
		f.Fatal(err)
	}
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(dev); err != nil {
		f.Fatal(err)
	}
	c := New(drv.OpenSession())
	f.Cleanup(c.Close)
	ctx, cancel := context.WithCancel(context.Background())
	f.Cleanup(cancel)
	return &Server{client: c, cfg: serverConfig{maxJobTime: 2 * time.Second}, ctx: ctx, cancel: cancel}, c
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
			line, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	f.Add(lines(
		remoteRequest{Op: "register", ID: "x@1", Program: string(payload), Epoch: 1},
		remoteRequest{Op: "submit", ID: "x@1", Device: "tiny-1", Shots: 4},
		remoteRequest{Op: "submit", ID: "x@1", Device: "tiny-1", Shots: 4, MeasLevel: "kerneled", MeasReturn: "avg", TimeoutMs: 50},
	))
	f.Add(lines(
		remoteRequest{Op: "register", ID: "rabi", Program: string(compiled.Text()), Params: compiled.Params},
		remoteRequest{Op: "submit", ID: "rabi", Device: "tiny-1", Shots: 2, Bindings: map[string]float64{"theta": 1.5}},
		remoteRequest{Op: "submit", ID: "rabi", Device: "tiny-1", Shots: 2, Bindings: map[string]float64{"theta": 99}},
		remoteRequest{Op: "submit", ID: "rabi", Pool: "nowhere", Shots: 2},
	))
	// Enough registrations to push the store past its bound.
	var many []remoteRequest
	for i := 0; i < maxStoredPrograms+6; i++ {
		many = append(many, remoteRequest{Op: "register", ID: fmt.Sprint("p", i), Program: "define void @m() #0 {\n}\n"})
	}
	f.Add(lines(append(many, remoteRequest{Op: "submit", ID: "p0", Device: "tiny-1", Shots: 1})...))
	f.Add(lines(remoteRequest{Op: "telemetry"}, remoteRequest{Op: "submit", ID: "never"}, remoteRequest{Op: "register_template"}))
	f.Add("{not json\n\n{}\n" + `{"op":"register","id":"g","program":"garbage"}` + "\n" + `{"op":"submit","shots":-1}`)

	f.Fuzz(func(t *testing.T, input string) {
		store := &programStore{byID: map[string]*ptemplate.Compiled{}}
		for _, line := range bytes.Split([]byte(input), []byte("\n")) {
			resp := srv.handleLine(line, store)
			if _, err := json.Marshal(resp); err != nil {
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
		req, err := json.Marshal(remoteRequest{Op: "submit", ID: "x", Device: "tiny-1", Shots: 3, MeasLevel: level.String()})
		if err != nil {
			f.Fatal(err)
		}
		resp := srv.handleLine(req, store)
		if resp.Error != "" {
			f.Fatalf("%s seed: %s", level, resp.Error)
		}
		line, err := json.Marshal(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(line))
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
