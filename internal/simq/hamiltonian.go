package simq

import (
	"fmt"
	"math"
	"math/cmplx"

	"mqsspulse/internal/linalg"
)

// ControlChannel describes how one hardware port couples into the system
// Hamiltonian. A play of complex envelope s(t) at frame frequency f and
// phase φ contributes, in the channel's rotating frame,
//
//	H_c(t) = 2π·RabiHz/2 · ( χ(t)·OpRaise + χ*(t)·OpRaise† )
//	χ(t)   = s(t) · exp(-i(2π·Δf·t + φ)),  Δf = f_frame − CarrierFreqHz
//
// so that a resonant (Δf = 0), full-scale, phase-0 constant drive of
// duration 1/RabiHz performs a full Rabi cycle.
type ControlChannel struct {
	PortID string
	// OpRaise is the raising operator embedded in the full space (σ+ for a
	// qubit drive, a† for a transmon, a two-site exchange operator for a
	// coupler port).
	OpRaise *linalg.Matrix
	// RabiHz is the peak Rabi frequency at full-scale drive amplitude.
	RabiHz float64
	// CarrierFreqHz is the rotating-frame reference (the site's transition
	// frequency); frame detunings are measured against it.
	CarrierFreqHz float64

	// opSparse is the sparse view of OpRaise (the embedded σ±/a/a†/ZZ
	// operators are O(n)-sparse); prebuilt by the package constructors,
	// and by NewSystemModel for literal-constructed channels.
	opSparse *linalg.Sparse
}

// SystemModel is everything the executor needs to integrate the dynamics:
// local dimensions, the drift Hamiltonian in the rotating frame (rad/s),
// the port→channel map, and decoherence channels. A model is immutable
// once NewSystemModel returns, so executors and their concurrent runs
// share it freely.
type SystemModel struct {
	Dims      []int
	Drift     *linalg.Matrix // rad/s; zero matrix for ideal resonant frames
	Channels  map[string]*ControlChannel
	Collapses []Collapse

	collapse *collapseSet // Collapses as the dissipator's generator, for the density engine
}

// NewSystemModel validates and assembles a model.
func NewSystemModel(dims []int, drift *linalg.Matrix, channels []*ControlChannel, collapses []Collapse) (*SystemModel, error) {
	n := 1
	for _, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("simq: site dimension %d < 2", d)
		}
		n *= d
	}
	if drift == nil {
		drift = linalg.NewMatrix(n, n)
	}
	if drift.Rows != n || drift.Cols != n {
		return nil, fmt.Errorf("simq: drift dim %dx%d != system dim %d", drift.Rows, drift.Cols, n)
	}
	if !drift.IsHermitian(1e-9 * (1 + drift.MaxAbs())) {
		return nil, fmt.Errorf("simq: drift Hamiltonian is not Hermitian")
	}
	chm := make(map[string]*ControlChannel, len(channels))
	for _, c := range channels {
		if c.PortID == "" {
			return nil, fmt.Errorf("simq: channel with empty port ID")
		}
		if c.OpRaise == nil || c.OpRaise.Rows != n || c.OpRaise.Cols != n {
			return nil, fmt.Errorf("simq: channel %s operator dimension mismatch", c.PortID)
		}
		if c.RabiHz <= 0 {
			return nil, fmt.Errorf("simq: channel %s has non-positive Rabi frequency", c.PortID)
		}
		if _, dup := chm[c.PortID]; dup {
			return nil, fmt.Errorf("simq: duplicate channel for port %s", c.PortID)
		}
		if c.opSparse == nil {
			c.opSparse = linalg.NewSparse(c.OpRaise)
		}
		chm[c.PortID] = c
	}
	for i, c := range collapses {
		if c.L == nil || c.L.Rows != n || c.L.Cols != n {
			return nil, fmt.Errorf("simq: collapse %d operator dimension mismatch", i)
		}
		if c.Rate < 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
			return nil, fmt.Errorf("simq: collapse %d has rate %g, want finite and non-negative", i, c.Rate)
		}
	}
	return &SystemModel{Dims: dims, Drift: drift, Channels: chm, Collapses: collapses,
		collapse: newCollapseSet(n, collapses)}, nil
}

// HilbertDim returns the total dimension.
func (m *SystemModel) HilbertDim() int { return m.Drift.Rows }

// driveTerm accumulates the channel's contribution for complex drive value
// chi into h: h += π·RabiHz·(χ·OpRaise + χ*·OpRaise†). It walks only the
// O(n) non-zeros of the embedded operator instead of scanning the dense
// n² entries.
func (c *ControlChannel) driveTerm(h *linalg.Matrix, chi complex128) {
	if chi == 0 {
		return
	}
	w := complex(math.Pi*c.RabiHz, 0)
	c.opSparse.AddToDense(h, w*chi)
	c.opSparse.DaggerAddToDense(h, w*cmplx.Conj(chi))
}

// newChannel assembles a channel with its sparse operator view prebuilt.
func newChannel(portID string, op *linalg.Matrix, rabiHz, carrierHz float64) *ControlChannel {
	return &ControlChannel{
		PortID:        portID,
		OpRaise:       op,
		RabiHz:        rabiHz,
		CarrierFreqHz: carrierHz,
		opSparse:      linalg.NewSparse(op),
	}
}

// QubitDriveChannel builds a σ+ drive channel for a 2-level site.
func QubitDriveChannel(portID string, dims []int, site int, rabiHz, carrierHz float64) *ControlChannel {
	return newChannel(portID, linalg.EmbedAt(linalg.SigmaPlus(), dims, site), rabiHz, carrierHz)
}

// TransmonDriveChannel builds an a† drive channel for a d-level site.
func TransmonDriveChannel(portID string, dims []int, site int, rabiHz, carrierHz float64) *ControlChannel {
	return newChannel(portID, linalg.EmbedAt(linalg.Creation(dims[site]), dims, site), rabiHz, carrierHz)
}

// ExchangeCouplerChannel builds a two-site exchange (XY) coupler channel for
// adjacent sites a,a+1: OpRaise = σ+_a σ-_{a+1}, so a real drive generates
// the iSWAP-family interaction χσ+σ- + h.c.
func ExchangeCouplerChannel(portID string, dims []int, a int, rabiHz float64) *ControlChannel {
	da, db := dims[a], dims[a+1]
	op := linalg.Annihilation(da).Dagger().Kron(linalg.Annihilation(db))
	return newChannel(portID, linalg.EmbedTwo(op, dims, a), rabiHz, 0)
}

// ZZCouplerChannel builds a two-site σz⊗σz coupler (entangling phase
// accumulation, as in Rydberg or tunable-ZZ superconducting couplers).
// OpRaise is Hermitian here; the drive's real part sets the ZZ strength.
func ZZCouplerChannel(portID string, dims []int, a int, rabiHz float64) *ControlChannel {
	zz := zProj(dims[a]).Kron(zProj(dims[a+1]))
	// Halve the projector: H = π·Rabi·(χ+χ*)·ZZ/2.
	return newChannel(portID, linalg.EmbedTwo(zz, dims, a).Scale(0.5), rabiHz, 0)
}

// zProj returns the |1⟩⟨1| projector extended to d levels (leakage levels
// also count as excited for ZZ interactions).
func zProj(d int) *linalg.Matrix {
	m := linalg.NewMatrix(d, d)
	for k := 1; k < d; k++ {
		m.Set(k, k, 1)
	}
	return m
}

// TransmonDrift returns the rotating-frame drift for a single transmon:
// Δ·a†a + (α/2)·a†a(a†a − 1), both in Hz (converted to rad/s internally).
// Δ is the detuning of the qubit from the rotating frame; α the
// anharmonicity (negative for transmons).
func TransmonDrift(dims []int, site int, detuneHz, anharmHz float64) *linalg.Matrix {
	d := dims[site]
	local := linalg.NewMatrix(d, d)
	for n := 0; n < d; n++ {
		e := 2 * math.Pi * (detuneHz*float64(n) + anharmHz/2*float64(n)*float64(n-1))
		local.Set(n, n, complex(e, 0))
	}
	return linalg.EmbedAt(local, dims, site)
}
