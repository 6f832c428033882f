package vqe

import (
	"fmt"
	"math"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/waveform"
)

// Ansatz builds executable QIR modules from a parameter vector, one per
// measurement basis.
type Ansatz interface {
	// NumParams returns the parameter vector length.
	NumParams() int
	// BuildModule emits the ansatz followed by basis rotations and
	// measurements for the given per-qubit basis string (e.g. "XX").
	BuildModule(params []float64, basis string) (*qir.Module, error)
}

// appendBasisRotations adds the pre-measurement rotations and mz calls for
// a basis string: X → H; Y → RZ(−π/2)·H (measure in the Y eigenbasis).
func appendBasisRotations(body []qir.Call, basis string) []qir.Call {
	for q := 0; q < len(basis); q++ {
		switch basis[q] {
		case 'X':
			body = append(body, qir.Call{Callee: qir.IntrH, Args: []qir.Arg{qir.QubitArg(int64(q))}})
		case 'Y':
			body = append(body,
				qir.Call{Callee: qir.IntrRZ, Args: []qir.Arg{qir.F64Arg(-math.Pi / 2), qir.QubitArg(int64(q))}},
				qir.Call{Callee: qir.IntrH, Args: []qir.Arg{qir.QubitArg(int64(q))}})
		}
	}
	for q := 0; q < len(basis); q++ {
		body = append(body, qir.Call{Callee: qir.IntrMz,
			Args: []qir.Arg{qir.QubitArg(int64(q)), qir.ResultArg(int64(q))}})
	}
	return body
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

// BuildModule implements Ansatz.
func (a *GateAnsatz) BuildModule(params []float64, basis string) (*qir.Module, error) {
	if len(params) != a.NumParams() {
		return nil, fmt.Errorf("vqe: gate ansatz wants %d params, got %d", a.NumParams(), len(params))
	}
	if len(basis) != a.Qubits {
		return nil, fmt.Errorf("vqe: basis %q for %d qubits", basis, a.Qubits)
	}
	var body []qir.Call
	pi := 0
	for l := 0; l <= a.Layers; l++ {
		for q := 0; q < a.Qubits; q++ {
			body = append(body, qir.Call{Callee: qir.IntrRY,
				Args: []qir.Arg{qir.F64Arg(params[pi]), qir.QubitArg(int64(q))}})
			pi++
		}
		if l < a.Layers {
			for q := 0; q+1 < a.Qubits; q++ {
				body = append(body, qir.Call{Callee: qir.IntrCZ,
					Args: []qir.Arg{qir.QubitArg(int64(q)), qir.QubitArg(int64(q + 1))}})
			}
		}
	}
	body = appendBasisRotations(body, basis)
	return &qir.Module{
		ID: "gate_vqe_ansatz", Profile: qir.ProfileBase, EntryName: "gate_vqe_ansatz",
		NumQubits: a.Qubits, NumResults: a.Qubits, Body: body,
	}, nil
}

// PulseAnsatz is the ctrl-VQE ansatz of the paper's Listing 1: directly
// parameterized drive waveforms on each qubit, virtual frame changes, and a
// parameterized entangling coupler pulse. Parameters (2 qubits):
// [amp0, amp1, phase0, phase1, ampCoupler].
type PulseAnsatz struct {
	drivePorts  []string // per qubit
	couplerPort string
	gateSamples int
	czSamples   int
	maxShots    int
}

// NewPulseAnsatz discovers ports and pulse-length constraints from the
// device through QDMI queries — the JIT-compilation flow of the paper.
func NewPulseAnsatz(dev qdmi.Device, qubits int) (*PulseAnsatz, error) {
	if qubits != 2 {
		return nil, fmt.Errorf("vqe: pulse ansatz currently supports 2 qubits, got %d", qubits)
	}
	target := qdmi.NewTarget(dev)
	a := &PulseAnsatz{drivePorts: make([]string, qubits)}
	for q := range a.drivePorts {
		p := target.Drive(q)
		if p == nil {
			return nil, fmt.Errorf("vqe: no drive port for qubit %d", q)
		}
		a.drivePorts[q] = p.ID
	}
	coupler := target.Coupler(0, 1)
	if coupler == nil {
		return nil, fmt.Errorf("vqe: no coupler port between qubits 0 and 1")
	}
	a.couplerPort = coupler.ID
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
	a.gateSamples = int(math.Round(xdur.(float64) * rate))
	a.czSamples = int(math.Round(czdur.(float64) * rate))
	if a.gateSamples <= 0 || a.czSamples <= 0 {
		return nil, fmt.Errorf("vqe: degenerate pulse lengths (%d, %d)", a.gateSamples, a.czSamples)
	}
	// ctrl-VQE shortens the entangler: the calibrated CZ pulse runs at
	// ~half amplitude, so half the duration at up to full amplitude spans
	// the same entangling angles — one source of the schedule-duration
	// advantage the paper cites.
	gran := target.Granularity
	half := a.czSamples / 2
	half -= half % gran
	if half >= 2*gran {
		a.czSamples = half
	}
	return a, nil
}

// NumParams implements Ansatz.
func (a *PulseAnsatz) NumParams() int { return 5 }

// BuildModule implements Ansatz.
func (a *PulseAnsatz) BuildModule(params []float64, basis string) (*qir.Module, error) {
	if len(params) != a.NumParams() {
		return nil, fmt.Errorf("vqe: pulse ansatz wants %d params, got %d", a.NumParams(), len(params))
	}
	if len(basis) != 2 {
		return nil, fmt.Errorf("vqe: basis %q for 2 qubits", basis)
	}
	amp0 := clampSym(params[0])
	amp1 := clampSym(params[1])
	phi0, phi1 := params[2], params[3]
	ampC := clampSym(params[4])

	mkDrive := func(name string, amp float64) (qir.WaveformConst, error) {
		w, err := waveform.Gaussian{Amplitude: amp, SigmaFrac: 0.2}.Materialize(name, a.gateSamples)
		if err != nil {
			return qir.WaveformConst{}, err
		}
		return qir.WaveformConst{Name: name, Samples: w.Samples}, nil
	}
	var waveforms []qir.WaveformConst
	var body []qir.Call

	// Drive pulses (waveform_1, waveform_2 of Listing 1). Zero-amplitude
	// pulses are omitted: the Gaussian envelope rejects |amp| = 0 ... and a
	// zero pulse is a no-op anyway.
	if amp0 != 0 {
		wf, err := mkDrive("waveform_1", amp0)
		if err != nil {
			return nil, err
		}
		waveforms = append(waveforms, wf)
		body = append(body, qir.Call{Callee: qir.IntrPlay,
			Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("waveform_1")}})
	}
	if amp1 != 0 {
		wf, err := mkDrive("waveform_2", amp1)
		if err != nil {
			return nil, err
		}
		waveforms = append(waveforms, wf)
		body = append(body, qir.Call{Callee: qir.IntrPlay,
			Args: []qir.Arg{qir.PortArg(1), qir.WaveformArg("waveform_2")}})
	}
	// Frame changes (virtual Z rotations).
	body = append(body,
		qir.Call{Callee: qir.IntrShiftPhase, Args: []qir.Arg{qir.PortArg(0), qir.F64Arg(phi0)}},
		qir.Call{Callee: qir.IntrShiftPhase, Args: []qir.Arg{qir.PortArg(1), qir.F64Arg(phi1)}},
	)
	// Entangling pulse (waveform_3 on the coupler port).
	if ampC != 0 {
		w, err := waveform.GaussianSquare{Amplitude: ampC, RiseFrac: 0.1}.Materialize("waveform_3", a.czSamples)
		if err != nil {
			return nil, err
		}
		waveforms = append(waveforms, qir.WaveformConst{Name: "waveform_3", Samples: w.Samples})
		body = append(body,
			qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1), qir.PortArg(2)}},
			qir.Call{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(2), qir.WaveformArg("waveform_3")}},
			qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1), qir.PortArg(2)}},
		)
	}
	body = appendBasisRotations(body, basis)
	return &qir.Module{
		ID: "pulse_vqe_quantum_kernel", Profile: qir.ProfilePulse, EntryName: "pulse_vqe_quantum_kernel",
		NumQubits: 2, NumResults: 2, NumPorts: 3,
		PortNames: []string{a.drivePorts[0], a.drivePorts[1], a.couplerPort},
		Waveforms: waveforms,
		Body:      body,
	}, nil
}
