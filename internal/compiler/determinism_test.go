package compiler

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// mixedKernel exercises every nondeterminism-prone lowering path in one
// kernel: single-qubit rotations (frame-candidate scans), a two-qubit gate
// (coupler-frame scan), virtual Zs, a user waveform, and measures.
func mixedKernel(t *testing.T) *qpi.Circuit {
	t.Helper()
	c := qpi.NewCircuit("determinism", 2, 2).
		H(0).RX(1, 0.7).RZ(0, 1.1).CX(0, 1).SX(1).
		Waveform("blip", []complex128{0.1, 0.2, 0.1, 0}).
		PlayWaveform("q0-drive", "blip").
		Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompileDeterministic: 50 compiles of one kernel must produce
// byte-identical payloads — the soundness precondition of the lowering
// cache and the remote calibration-epoch check.
func TestCompileDeterministic(t *testing.T) {
	dev := scDevice(t)
	k := mixedKernel(t)
	var first []byte
	for i := 0; i < 50; i++ {
		res, err := Compile(k, dev)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Payload
			continue
		}
		if !bytes.Equal(res.Payload, first) {
			t.Fatalf("compile %d produced a different payload (%d vs %d bytes)",
				i, len(res.Payload), len(first))
		}
	}
}

// TestLinkDeterministicThreeSites: the device's link-time measure lowering
// is under the same contract. The middle site of a 3-site chain has the
// most neighbours; 50 links of a base-profile measure of it must give one
// schedule, barrier port order included.
func TestLinkDeterministicThreeSites(t *testing.T) {
	dev, err := devices.Superconducting("sc-chain", 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	mod := &qir.Module{
		ID: "chain", Profile: qir.ProfileBase, EntryName: "chain",
		NumQubits: 3, NumResults: 1,
		Body: []qir.Call{{Callee: qir.IntrMz, Args: []qir.Arg{qir.QubitArg(1), qir.ResultArg(0)}}},
	}
	var first string
	for i := 0; i < 50; i++ {
		sched, err := dev.BuildScheduleForPayload(mod)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sched.String()
		} else if got := sched.String(); got != first {
			t.Fatalf("link %d produced a different schedule:\n%s\nwant:\n%s", i, got, first)
		}
	}
}

// countPlays tallies pulse play intrinsics in an emitted QIR module.
func countPlays(m *qir.Module) int {
	n := 0
	for _, call := range m.Body {
		if call.Callee == qir.IntrPlay {
			n++
		}
	}
	return n
}

// TestFullRotationLowersToNothing: rx(2π) is a no-op, not a zero-amplitude
// play that still consumes schedule time (the pre-normalization bug scaled
// the envelope by mod(2π,2π)/π = 0).
func TestFullRotationLowersToNothing(t *testing.T) {
	dev := scDevice(t)
	for _, turns := range []float64{2 * math.Pi, -2 * math.Pi, 4 * math.Pi} {
		k := qpi.NewCircuit("full-turn", 1, 1).RX(0, turns).Measure(0, 0)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(k, dev)
		if err != nil {
			t.Fatal(err)
		}
		if n := countPlays(res.QIR); n != 0 {
			t.Fatalf("rx(%g) emitted %d plays, want 0", turns, n)
		}
	}
}

// TestOverfullRotationNormalizes: rx(θ+2π) compiles to the same payload as
// rx(θ) — normalization happens before envelope scaling.
func TestOverfullRotationNormalizes(t *testing.T) {
	dev := scDevice(t)
	compile := func(theta float64) []byte {
		k := qpi.NewCircuit("rxnorm", 1, 1).RX(0, theta).Measure(0, 0)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(k, dev)
		if err != nil {
			t.Fatal(err)
		}
		return res.Payload
	}
	if !bytes.Equal(compile(math.Pi), compile(3*math.Pi)) {
		t.Fatal("rx(3π) does not normalize to rx(π)")
	}
	// θ+2π is one ulp away from θ after math.Mod, so assert behavior (one
	// real play) rather than byte equality.
	k := qpi.NewCircuit("rxwrap", 1, 1).RX(0, math.Pi/3+2*math.Pi).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	res, err := Compile(k, dev)
	if err != nil {
		t.Fatal(err)
	}
	if n := countPlays(res.QIR); n != 1 {
		t.Fatalf("rx(θ+2π) emitted %d plays, want 1", n)
	}
}

// TestRotationPastPiPlaysNegativeAmplitude: a concrete rx(θ), θ ∈ (π, 2π),
// reduces to θ−2π — one play of the π envelope scaled by (θ−2π)/π, with no
// frame-shift pair turning the axis round.
func TestRotationPastPiPlaysNegativeAmplitude(t *testing.T) {
	dev := scDevice(t)
	env, err := qdmi.NewTarget(dev).Envelope("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{math.Pi + 0.01, 4, 3 * math.Pi / 2, 5.5, 2*math.Pi - 0.01} {
		k := qpi.NewCircuit("rx-past-pi", 1, 1).RX(0, theta).Measure(0, 0)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(k, dev)
		if err != nil {
			t.Fatal(err)
		}
		var plays []qir.Call
		for _, c := range res.QIR.Body {
			switch c.Callee {
			case qir.IntrPlay:
				plays = append(plays, c)
			case qir.IntrShiftPhase:
				t.Fatalf("rx(%g) shifts a frame: %v", theta, c)
			}
		}
		if len(plays) != 1 {
			t.Fatalf("rx(%g) emitted %d plays, want 1", theta, len(plays))
		}
		w, _ := res.QIR.FindWaveform(plays[0].Args[1].Sym)
		if !slices.Equal(w.Samples, env.Samples) {
			t.Fatalf("rx(%g) plays @%s, not the π envelope", theta, w.Name)
		}
		scale := (theta - 2*math.Pi) / math.Pi
		if f := plays[0].Args[2].F; !(math.Abs(f-scale) <= 1e-12) {
			t.Fatalf("rx(%g) plays the π envelope by %v, want %v", theta, f, scale)
		}
	}
}
