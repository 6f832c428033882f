package compiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/linalg"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/testutil"
	"mqsspulse/internal/waveform"
)

// idealDevice builds a 2-transmon device with perfect readout and very long
// coherence so that compiled-circuit statistics can be compared against
// exact state-vector simulation.
func idealDevice(t *testing.T) *devices.SimDevice { return transmons(t, 40e6) }

// transmons is idealDevice at a given drive Rabi rate: the π amplitude is
// 0.837 at 40 MHz and falls as the rate rises.
func transmons(t *testing.T, driveRabiHz float64) *devices.SimDevice {
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
		DriveRabiHz:     driveRabiHz,
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
		m1 = testutil.Hadamard()
	case "s":
		m1 = testutil.SGate()
	case "t":
		m1 = testutil.TGate()
	case "sx":
		u, _ := linalg.ExpI(linalg.PauliX(), math.Pi/4)
		m1 = u
	case "rx":
		m1 = testutil.RX(op.Params[0])
	case "ry":
		m1 = testutil.RY(op.Params[0])
	case "rz":
		m1 = testutil.RZ(op.Params[0])
	case "cz":
		return linalg.EmbedTwo(testutil.CZ(), []int{2, 2}, 0)
	case "cx":
		if op.Qubits[0] == 0 {
			return linalg.EmbedTwo(testutil.CNOT(), []int{2, 2}, 0)
		}
		// control=1, target=0: swap-conjugated CNOT.
		sw := linalg.FromRows([][]complex128{
			{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1},
		})
		return sw.Mul(linalg.EmbedTwo(testutil.CNOT(), []int{2, 2}, 0)).Mul(sw)
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
		psi = testutil.MulVec(gateMatrix(op), psi)
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
		want := idealDistribution(c.Ops())

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
				trial, depth, tv, c.Ops(), want, out.Counts)
		}
	}
}

// halvePulse overrides op on sites with the device's own implementation at
// half amplitude: every step kept, every play scaled by ½.
func halvePulse(t *testing.T, d *devices.SimDevice, op string, sites []int) {
	t.Helper()
	impl, err := d.DefaultPulse(op, sites)
	if err != nil {
		t.Fatal(err)
	}
	half := &qdmi.PulseImpl{Operation: op}
	for _, st := range impl.Steps {
		if st.Kind == "play" {
			w, err := st.Waveform.Scale(0.5)
			if err != nil {
				t.Fatal(err)
			}
			st.Waveform = w
		}
		half.Steps = append(half.Steps, st)
	}
	if err := d.SetPulseImpl(op, sites, half); err != nil {
		t.Fatal(err)
	}
}

// installMeasure gives each of sites a measurement of its own through
// SetPulseImpl: a readout stimulus played on the readout port, then a
// 40-sample capture — neither of which the device's own measurement has.
func installMeasure(t *testing.T, d *devices.SimDevice, sites ...int) {
	t.Helper()
	stimulus, _ := waveform.Constant{Amplitude: 0.2}.Materialize("stimulus", 16)
	for _, s := range sites {
		if err := d.SetPulseImpl("measure", []int{s}, &qdmi.PulseImpl{Operation: "measure", Steps: []qdmi.PulseStep{
			{Kind: "barrier"},
			{Kind: "play", PortRole: "readout0", Waveform: stimulus},
			{Kind: "capture", PortRole: "readout0", Samples: 40},
		}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGateTableLowersTheSameAtCompileAndLinkTime: a gate means one thing.
// Every row of the gate table, at every angle that exercises the rotation
// normalisation, is run twice on identically seeded devices — as a QPI
// kernel through Compile (the pass pipeline lowers it) and as the
// hand-written gate-level QIR module of the same kernel (the device lowers
// it at link time) — and the two return identical counts: not close, equal,
// because both lowerings write the same table's primitives from the same
// calibrated pulses. The devices are the three technology presets, a
// transmon whose π amplitude is 0.558 (so rx(3π/2) would fit under full
// scale unfolded: the angle decides the fold, never the amplitude), and one
// with x, cz and measure replaced through SetPulseImpl. A row
// with no lowering fails on both paths with the device's ErrNotSupported.
func TestGateTableLowersTheSameAtCompileAndLinkTime(t *testing.T) {
	const shots = 400
	preset := func(f func(string, int, int64) (*devices.SimDevice, error)) func(*testing.T) *devices.SimDevice {
		return func(t *testing.T) *devices.SimDevice {
			t.Helper()
			d, err := f("eq", 2, 9)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	targets := []struct {
		name string
		make func(*testing.T) *devices.SimDevice
	}{
		{"sc", preset(devices.Superconducting)},
		{"ion", preset(devices.TrappedIon)},
		{"atom", preset(devices.NeutralAtom)},
		{"sc-60MHz", func(t *testing.T) *devices.SimDevice { return transmons(t, 60e6) }},
		{"overridden", func(t *testing.T) *devices.SimDevice {
			d := idealDevice(t)
			halvePulse(t, d, "x", []int{0})
			halvePulse(t, d, "cz", []int{0, 1})
			installMeasure(t, d, 0, 1)
			return d
		}},
	}
	angles := []float64{0.7, -0.7, math.Pi, 3 * math.Pi / 2, 1.9 * math.Pi, 2 * math.Pi, 0}

	run := func(t *testing.T, d *devices.SimDevice, payload []byte, format qdmi.ProgramFormat) (map[uint64]int, error) {
		t.Helper()
		job, err := d.SubmitJob(payload, format, shots)
		if err != nil {
			return nil, err
		}
		if st := job.Wait(context.Background()); st != qdmi.JobDone {
			_, err := job.Result()
			return nil, err
		}
		out, err := job.Result()
		if err != nil {
			return nil, err
		}
		return out.Counts, nil
	}

	for _, tg := range targets {
		for i := range waveform.Gates {
			g := &waveform.Gates[i]
			params := [][]float64{nil}
			if g.Params == 1 {
				params = params[:0]
				for _, a := range angles {
					params = append(params, []float64{a})
				}
			}
			for _, p := range params {
				t.Run(fmt.Sprintf("%s/%s%v", tg.name, g.Name, p), func(t *testing.T) {
					// sx on every operand before and after the gate: a phase
					// the gate leaves on |0⟩ would otherwise go unmeasured.
					qubits := []int{0, 1}[:g.Arity]
					k := qpi.NewCircuit("row", 2, 2)
					var body []qir.Call
					sx := func() {
						for _, q := range qubits {
							k.SX(q)
							body = append(body, qir.Call{Callee: qir.GateIntrinsics["sx"], Args: []qir.Arg{qir.QubitArg(int64(q))}})
						}
					}
					sx()
					k.Gate(g.Name, qubits, p...)
					var args []qir.Arg
					for _, a := range p {
						args = append(args, qir.F64Arg(a))
					}
					for _, q := range qubits {
						args = append(args, qir.QubitArg(int64(q)))
					}
					body = append(body, qir.Call{Callee: g.QIS, Args: args})
					sx()
					for _, q := range qubits {
						k.Measure(q, q)
						body = append(body, qir.Call{Callee: qir.IntrMz,
							Args: []qir.Arg{qir.QubitArg(int64(q)), qir.ResultArg(int64(q))}})
					}
					if err := k.End(); err != nil {
						t.Fatal(err)
					}
					gates := &qir.Module{ID: "row", Profile: qir.ProfileBase, EntryName: "row",
						NumQubits: 2, NumResults: 2, Body: body}

					compileOn, linkOn := tg.make(t), tg.make(t)
					linked, linkErr := run(t, linkOn, gates.Emit(), qdmi.FormatQIRBase)
					res, compileErr := Compile(k, compileOn)
					if !g.HasLowering() {
						if !errors.Is(compileErr, qdmi.ErrNotSupported) || !errors.Is(linkErr, qdmi.ErrNotSupported) {
							t.Fatalf("a gate with no lowering: compile %v, link %v; want ErrNotSupported from both", compileErr, linkErr)
						}
						return
					}
					if compileErr != nil || linkErr != nil {
						t.Fatalf("compile %v, link %v", compileErr, linkErr)
					}
					compiled, err := run(t, compileOn, res.Payload, FormatFor(res.QIR))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(compiled, linked) {
						t.Fatalf("compiled counts %v, link-time counts %v", compiled, linked)
					}
					// The override is what both ran: sx·x·sx is a whole turn, and
					// half of one with the π envelope (sx scales it too) halved.
					if tg.name == "overridden" && g.Name == "x" {
						if p1 := float64(compiled[1]) / shots; p1 < 0.9 {
							t.Fatalf("overridden x: P(1) = %.3f, want ≈ 1", p1)
						}
					}
				})
			}
		}
	}
}
