package vqe

import (
	"fmt"
	"math"
	"strconv"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/waveform"
)

// Ansatz yields the template of one energy measurement: the trial state,
// rotated into a measurement basis and measured, with the parameter vector
// as the point to bind it at. The client lowers a template once per
// calibration epoch, so every later evaluation binds.
type Ansatz interface {
	// NumParams returns the parameter vector length.
	NumParams() int
	// Kernel returns the template that prepares the ansatz and measures it
	// in the per-qubit basis string (e.g. "XX"), and params as a point in
	// its declared space.
	Kernel(params []float64, basis string) (*ptemplate.Template, ptemplate.Bindings, error)
}

// measureIn appends the pre-measurement rotations for a basis string —
// X → H; Y → RZ(−π/2)·H (measure in the Y eigenbasis) — and measures qubit
// q into bit q.
func measureIn(k *qpi.Circuit, basis string) *qpi.Circuit {
	for q := 0; q < len(basis); q++ {
		switch basis[q] {
		case 'X':
			k.H(q)
		case 'Y':
			k.RZ(q, -math.Pi/2).H(q)
		}
	}
	for q := 0; q < len(basis); q++ {
		k.Measure(q, q)
	}
	return k
}

// GateAnsatz is a hardware-efficient gate-level ansatz: alternating layers
// of per-qubit RY rotations and a CZ entangler chain, closed by a final RY
// layer (the paper's "hardware-efficient Ansatz" reference [48]).
type GateAnsatz struct {
	Qubits int
	Layers int
}

// NumParams implements Ansatz.
func (a *GateAnsatz) NumParams() int { return a.Qubits * (a.Layers + 1) }

// Kernel implements Ansatz: a template with one symbolic RY per parameter,
// each declared over [−π, π], and params reduced into (−π, π] by
// waveform.WrapPhase. The template is built per call; the client's cache
// keys on its structure, so each basis still lowers once.
func (a *GateAnsatz) Kernel(params []float64, basis string) (*ptemplate.Template, ptemplate.Bindings, error) {
	if len(params) != a.NumParams() {
		return nil, nil, fmt.Errorf("vqe: gate ansatz wants %d params, got %d", a.NumParams(), len(params))
	}
	if len(basis) != a.Qubits {
		return nil, nil, fmt.Errorf("vqe: basis %q for %d qubits", basis, a.Qubits)
	}
	k := qpi.NewCircuit("gate_vqe_ansatz", a.Qubits, a.Qubits)
	declared := make([]ptemplate.Param, len(params))
	point := make(ptemplate.Bindings, len(params))
	for i, x := range params {
		name := "theta" + strconv.Itoa(i)
		declared[i] = ptemplate.Param{Name: name, Min: -math.Pi, Max: math.Pi}
		point[name] = waveform.WrapPhase(x)
	}
	for l := 0; l <= a.Layers; l++ {
		for q := 0; q < a.Qubits; q++ {
			k.RYP(q, qpi.Sym(declared[l*a.Qubits+q].Name))
		}
		if l < a.Layers {
			for q := 0; q+1 < a.Qubits; q++ {
				k.CZ(q, q+1)
			}
		}
	}
	if err := measureIn(k, basis).End(); err != nil {
		return nil, nil, err
	}
	tpl, err := ptemplate.New(k, declared...)
	return tpl, point, err
}

// PulseAnsatz is the ctrl-VQE ansatz of the paper's Listing 1: directly
// parameterized drive waveforms on each qubit, virtual frame changes, and a
// parameterized entangling coupler pulse. Parameters (2 qubits):
// [amp0, amp1, phase0, phase1, ampCoupler]. It is a template per
// measurement basis, so the client lowers each once per calibration epoch
// and every evaluation binds into the device's prepared program.
type PulseAnsatz struct {
	templates map[string]*ptemplate.Template // by basis
}

// NewPulseAnsatz discovers ports and pulse-length constraints from the
// device through QDMI queries — the JIT-compilation flow of the paper.
func NewPulseAnsatz(dev qdmi.Device, qubits int) (*PulseAnsatz, error) {
	if qubits != 2 {
		return nil, fmt.Errorf("vqe: pulse ansatz currently supports 2 qubits, got %d", qubits)
	}
	target := qdmi.NewTarget(dev)
	drive0, drive1, coupler := target.Drive(0), target.Drive(1), target.Coupler(0, 1)
	if drive0 == nil || drive1 == nil || coupler == nil {
		return nil, fmt.Errorf("vqe: pulse ansatz needs drive ports on qubits 0 and 1 and a coupler between them")
	}
	rate, err := qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz)
	if err != nil {
		return nil, err
	}
	xdur, err := dev.QueryOperationProperty("x", []int{0}, qdmi.OpPropDurationSeconds)
	if err != nil {
		return nil, err
	}
	czdur, err := dev.QueryOperationProperty("cz", []int{0, 1}, qdmi.OpPropDurationSeconds)
	if err != nil {
		return nil, err
	}
	gateSamples := int(math.Round(xdur.(float64) * rate))
	czSamples := int(math.Round(czdur.(float64) * rate))
	if gateSamples <= 0 || czSamples <= 0 {
		return nil, fmt.Errorf("vqe: degenerate pulse lengths (%d, %d)", gateSamples, czSamples)
	}
	// ctrl-VQE shortens the entangler: the calibrated CZ pulse runs at
	// ~half amplitude, so half the duration at up to full amplitude spans
	// the same entangling angles — one source of the schedule-duration
	// advantage the paper cites.
	gran := target.Granularity
	half := czSamples / 2
	half -= half % gran
	if half >= 2*gran {
		czSamples = half
	}
	a := &PulseAnsatz{templates: map[string]*ptemplate.Template{}}
	for _, b0 := range "XYZ" {
		for _, b1 := range "XYZ" {
			basis := string([]rune{b0, b1})
			// Listing 1: the drive pulses (waveform_1, waveform_2), the frame
			// changes — RZ(−φ) is the shift_phase(φ) of the drive frame —
			// and the entangling pulse (waveform_3) on the coupler port.
			k := qpi.NewCircuit("pulse_vqe_quantum_kernel", 2, 2).
				WaveformEnvelopeP("waveform_1", waveform.Gaussian{Amplitude: 1, SigmaFrac: 0.2}, gateSamples, qpi.Sym("amp0")).
				WaveformEnvelopeP("waveform_2", waveform.Gaussian{Amplitude: 1, SigmaFrac: 0.2}, gateSamples, qpi.Sym("amp1")).
				WaveformEnvelopeP("waveform_3", waveform.GaussianSquare{Amplitude: 1, RiseFrac: 0.1}, czSamples, qpi.Sym("amp_c")).
				PlayWaveform(drive0.ID, "waveform_1").
				PlayWaveform(drive1.ID, "waveform_2").
				RZP(0, qpi.SymAffine("phase0", -1, 0)).
				RZP(1, qpi.SymAffine("phase1", -1, 0)).
				Barrier().
				PlayWaveform(coupler.ID, "waveform_3").
				Barrier()
			if err := measureIn(k, basis).End(); err != nil {
				return nil, err
			}
			// The amplitudes span full scale, the phases one period.
			if a.templates[basis], err = ptemplate.New(k,
				ptemplate.Param{Name: "amp0", Min: -1, Max: 1},
				ptemplate.Param{Name: "amp1", Min: -1, Max: 1},
				ptemplate.Param{Name: "amp_c", Min: -1, Max: 1},
				ptemplate.Param{Name: "phase0", Min: -math.Pi, Max: math.Pi},
				ptemplate.Param{Name: "phase1", Min: -math.Pi, Max: math.Pi}); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// NumParams implements Ansatz.
func (a *PulseAnsatz) NumParams() int { return 5 }

// Kernel implements Ansatz: the basis's template, and params as a point in
// its declared space — amplitudes clamped to full scale, phases reduced by
// WrapPhase — so no parameter vector is a bad point.
func (a *PulseAnsatz) Kernel(params []float64, basis string) (*ptemplate.Template, ptemplate.Bindings, error) {
	if len(params) != a.NumParams() {
		return nil, nil, fmt.Errorf("vqe: pulse ansatz wants %d params, got %d", a.NumParams(), len(params))
	}
	tpl, ok := a.templates[basis]
	if !ok {
		return nil, nil, fmt.Errorf("vqe: basis %q for 2 qubits", basis)
	}
	point := ptemplate.Bindings{
		"amp0":   clampSym(params[0]),
		"amp1":   clampSym(params[1]),
		"phase0": waveform.WrapPhase(params[2]),
		"phase1": waveform.WrapPhase(params[3]),
		"amp_c":  clampSym(params[4]),
	}
	return tpl, point, nil
}

// clampSym clamps to [-1, 1].
func clampSym(x float64) float64 { return math.Max(-1, math.Min(1, x)) }
