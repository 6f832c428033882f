package compiler

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/linalg"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// idealDevice builds a 2-transmon device with perfect readout and very long
// coherence so that compiled-circuit statistics can be compared against
// exact state-vector simulation.
func idealDevice(t *testing.T) *devices.SimDevice {
	t.Helper()
	cfg := devices.Config{
		Name:         "ideal-sc",
		Technology:   "superconducting",
		Version:      "test",
		SampleRateHz: 1e9,
		Granularity:  8,
		MinSamples:   8,
		MaxSamples:   1 << 16,
		Sites: []devices.SiteConfig{
			{Dim: 3, FreqHz: 4.9e9, AnharmHz: -220e6, T1Seconds: 1, T2Seconds: 1},
			{Dim: 3, FreqHz: 5.05e9, AnharmHz: -220e6, T1Seconds: 1, T2Seconds: 1},
		},
		Couplings:       []devices.CouplingConfig{{A: 0, Kind: devices.CouplingZZ, RabiHz: 25e6}},
		DriveRabiHz:     40e6,
		GateSamples:     32,
		ReadoutSamples:  96,
		ReadoutFidelity: 1.0,
		DragBeta:        0.72,
		Seed:            55,
	}
	d, err := devices.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// gateMatrix returns the ideal 2-qubit unitary of a QPI op.
func gateMatrix(op qpi.Op) *linalg.Matrix {
	var m1 *linalg.Matrix
	switch op.Gate {
	case "x":
		m1 = linalg.PauliX()
	case "y":
		m1 = linalg.PauliY()
	case "z":
		m1 = linalg.PauliZ()
	case "h":
		m1 = linalg.Hadamard()
	case "s":
		m1 = linalg.SGate()
	case "t":
		m1 = linalg.TGate()
	case "sx":
		u, _ := linalg.ExpI(linalg.PauliX(), math.Pi/4)
		m1 = u
	case "rx":
		m1 = linalg.RX(op.Params[0])
	case "ry":
		m1 = linalg.RY(op.Params[0])
	case "rz":
		m1 = linalg.RZ(op.Params[0])
	case "cz":
		return linalg.EmbedTwo(linalg.CZ(), []int{2, 2}, 0)
	case "cx":
		if op.Qubits[0] == 0 {
			return linalg.EmbedTwo(linalg.CNOT(), []int{2, 2}, 0)
		}
		// control=1, target=0: swap-conjugated CNOT.
		sw := linalg.FromRows([][]complex128{
			{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1},
		})
		return sw.Mul(linalg.EmbedTwo(linalg.CNOT(), []int{2, 2}, 0)).Mul(sw)
	}
	return linalg.EmbedAt(m1, []int{2, 2}, op.Qubits[0])
}

// idealDistribution computes the exact Z-basis outcome distribution of a
// gate-only circuit with classical bit b = qubit b.
func idealDistribution(ops []qpi.Op) []float64 {
	psi := []complex128{1, 0, 0, 0}
	for _, op := range ops {
		if op.Kind != qpi.OpGate {
			continue
		}
		psi = gateMatrix(op).MulVec(psi)
	}
	probs := make([]float64, 4)
	for i, a := range psi {
		// State index is big-endian (qubit0 = MSB); classical mask is
		// little-endian in bit index. Remap.
		q0 := (i >> 1) & 1
		q1 := i & 1
		mask := q0 | q1<<1
		probs[mask] += real(a)*real(a) + imag(a)*imag(a)
	}
	return probs
}

// TestRandomCircuitEquivalence is the strongest end-to-end check in the
// repository: random gate circuits are compiled through QPI → MLIR → passes
// → QIR → device lowering → Hamiltonian-level execution, and the measured
// distributions are compared against exact state-vector results. Any sign
// or convention error anywhere in the lowering chain shows up here.
func TestRandomCircuitEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("random equivalence sweep in -short mode")
	}
	dev := idealDevice(t)
	rng := rand.New(rand.NewSource(123))
	gates1q := []string{"x", "y", "z", "h", "s", "t", "sx"}
	rot1q := []string{"rx", "ry", "rz"}

	const trials = 12
	const shots = 3000
	for trial := 0; trial < trials; trial++ {
		c := qpi.NewCircuit("rand", 2, 2)
		depth := 2 + rng.Intn(5)
		for d := 0; d < depth; d++ {
			switch rng.Intn(4) {
			case 0:
				c.Gate(gates1q[rng.Intn(len(gates1q))], []int{rng.Intn(2)})
			case 1:
				c.Gate(rot1q[rng.Intn(len(rot1q))], []int{rng.Intn(2)},
					rng.Float64()*2*math.Pi-math.Pi)
			case 2:
				c.CZ(0, 1)
			case 3:
				if rng.Intn(2) == 0 {
					c.CX(0, 1)
				} else {
					c.CX(1, 0)
				}
			}
		}
		c.Measure(0, 0).Measure(1, 1)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		want := idealDistribution(c.Ops)

		res, err := Compile(c, dev)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		job, err := dev.SubmitJob(res.Payload, FormatFor(res.QIR), shots)
		if err != nil {
			t.Fatalf("trial %d: submit: %v", trial, err)
		}
		if st := job.Wait(context.Background()); st != qdmi.JobDone {
			_, rerr := job.Result()
			t.Fatalf("trial %d: job %v: %v", trial, st, rerr)
		}
		out, err := job.Result()
		if err != nil {
			t.Fatal(err)
		}
		// Total-variation distance between measured and ideal.
		var tv float64
		var total int
		for mask := uint64(0); mask < 4; mask++ {
			total += out.Counts[mask]
			p := float64(out.Counts[mask]) / float64(shots)
			tv += math.Abs(p - want[mask])
		}
		tv /= 2
		if total != shots {
			t.Fatalf("trial %d: counts outside 2-bit space (total %d)", trial, total)
		}
		if tv > 0.06 {
			t.Fatalf("trial %d (depth %d): TV distance %.4f\nops: %+v\nwant %v\ngot %v",
				trial, depth, tv, c.Ops, want, out.Counts)
		}
	}
}

// TestOverriddenPulsesLowerTheSameAtLinkTime: SetPulseImpl bumps the
// calibration epoch because it changes what DefaultPulse answers, and both
// gate lowerings must listen — the compiler's, and the device's own at QIR
// link time for gate-level (base-profile) payloads. With x on site 0 and cz
// overridden by half-amplitude pulses, the same kernel as compiled pulse
// QIR and as gate-level QIR gives the same distribution on identically
// seeded devices; at the default pulses it would be P(11) ≈ 1.
func TestOverriddenPulsesLowerTheSameAtLinkTime(t *testing.T) {
	const shots = 4000
	override := func(d *devices.SimDevice, op string, sites []int) {
		t.Helper()
		impl, err := d.DefaultPulse(op, sites)
		if err != nil {
			t.Fatal(err)
		}
		half := &qdmi.PulseImpl{Operation: op}
		for _, st := range impl.Steps {
			if st.Kind == "play" {
				w, err := st.Waveform.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				if w, err = w.Scale(0.5); err != nil {
					t.Fatal(err)
				}
				spec := w.ToSpec()
				st.Waveform = &spec
			}
			half.Steps = append(half.Steps, st)
		}
		if err := d.SetPulseImpl(op, sites, half); err != nil {
			t.Fatal(err)
		}
	}
	run := func(payload []byte, format qdmi.ProgramFormat) []float64 {
		t.Helper()
		d := idealDevice(t)
		override(d, "x", []int{0})
		override(d, "cz", []int{0, 1})
		job, err := d.SubmitJob(payload, format, shots)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Wait(context.Background()); st != qdmi.JobDone {
			_, rerr := job.Result()
			t.Fatalf("job %v: %v", st, rerr)
		}
		out, err := job.Result()
		if err != nil {
			t.Fatal(err)
		}
		probs := make([]float64, 4)
		for mask := range probs {
			probs[mask] = out.Probability(uint64(mask))
		}
		return probs
	}

	// X(0) then a CX(0→1) spelled H·CZ·H: half an x leaves the control in
	// superposition, and half a cz turns the target by π/2 where a whole one
	// would flip it.
	c := qpi.NewCircuit("override", 2, 2).X(0).H(1).CZ(0, 1).H(1).Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	target := idealDevice(t)
	override(target, "x", []int{0})
	override(target, "cz", []int{0, 1})
	res, err := Compile(c, target)
	if err != nil {
		t.Fatal(err)
	}
	compiled := run(res.Payload, FormatFor(res.QIR))

	q := func(i int64) []qir.Arg { return []qir.Arg{qir.QubitArg(i)} }
	gates := &qir.Module{
		ID: "override", Profile: qir.ProfileBase, EntryName: "override", NumQubits: 2, NumResults: 2,
		Body: []qir.Call{
			{Callee: qir.IntrX, Args: q(0)},
			{Callee: qir.IntrH, Args: q(1)},
			{Callee: qir.IntrCZ, Args: []qir.Arg{qir.QubitArg(0), qir.QubitArg(1)}},
			{Callee: qir.IntrH, Args: q(1)},
			{Callee: qir.IntrMz, Args: []qir.Arg{qir.QubitArg(0), qir.ResultArg(0)}},
			{Callee: qir.IntrMz, Args: []qir.Arg{qir.QubitArg(1), qir.ResultArg(1)}},
		},
	}
	linked := run(gates.Emit(), qdmi.FormatQIRBase)

	// Two independent N-shot estimates of one probability differ by a
	// variable of standard deviation ≤ sqrt(2·¼/N); allow five of them.
	bound := 5 * math.Sqrt(0.5/shots)
	for mask := range compiled {
		if d := math.Abs(compiled[mask] - linked[mask]); d > bound {
			t.Fatalf("P(%02b): compiled %.4f, link-time %.4f — differ by %.4f > %.4f\ncompiled %v\nlinked   %v",
				mask, compiled[mask], linked[mask], d, bound, compiled, linked)
		}
	}
	// The override is what both ran: the control is near ½, not near 1.
	if p1 := compiled[0b01] + compiled[0b11]; math.Abs(p1-0.5) > 0.06 {
		t.Fatalf("overridden x: P(q0=1) = %.4f, want ≈ 0.5", p1)
	}
}
