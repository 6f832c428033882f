// Package devices provides simulated QDMI devices for the three quantum
// technologies the paper targets (superconducting transmons, trapped ions,
// neutral atoms). Each device executes QIR pulse-profile payloads through
// the simq dynamics engine, advertises ports/frames/waveform constraints
// through QDMI queries, owns a gate→pulse calibration table, and exposes a
// physically-motivated parameter drift process so the paper's automated-
// calibration claims (Section 2.1) can be reproduced end to end.
package devices

import (
	"math"
	"math/rand"
)

// SiteConfig describes one qubit site: its true physics (which drifts) and
// the calibrated values the control electronics believe (which the
// calibration routines update).
type SiteConfig struct {
	// Dim is the simulated level count (2, or 3 for transmons with leakage).
	Dim int
	// FreqHz is the nominal transition frequency.
	FreqHz float64
	// AnharmHz is the anharmonicity (0 for true two-level systems).
	AnharmHz float64
	// T1Seconds and T2Seconds are the relaxation and coherence times
	// (0 disables the channel).
	T1Seconds, T2Seconds float64
	// ReadoutFidelity is this site's single-shot assignment fidelity, in
	// [0.5, 1]; 0 falls back to the device-wide Config.ReadoutFidelity.
	ReadoutFidelity float64
}

// CouplingKind selects the two-site interaction a coupler port drives.
type CouplingKind int

// Coupling kinds.
const (
	// CouplingZZ is a diagonal ZZ interaction (CZ-style entangler:
	// tunable-coupler transmons, Rydberg blockade).
	CouplingZZ CouplingKind = iota
	// CouplingExchange is an XY exchange interaction (iSWAP-style
	// entangler: Mølmer-Sørensen-like for ions).
	CouplingExchange
)

// CouplingConfig describes a coupler port between adjacent sites A and A+1.
type CouplingConfig struct {
	A      int // lower site index; couples A and A+1
	Kind   CouplingKind
	RabiHz float64 // full-scale coupling strength
}

// DriftConfig parameterizes the Ornstein-Uhlenbeck drift processes of the
// device: site frequency offsets and global drive-amplitude scale. The
// rates are chosen per technology from the timescales the paper cites
// (Section 2.1).
type DriftConfig struct {
	// FreqSigmaHz is the stationary standard deviation of each site's
	// frequency offset.
	FreqSigmaHz float64
	// FreqTauSeconds is the correlation time of frequency drift.
	FreqTauSeconds float64
	// AmpSigma is the stationary relative std-dev of the drive amplitude
	// scale (laser power / mixer gain drift).
	AmpSigma float64
	// AmpTauSeconds is the correlation time of amplitude drift.
	AmpTauSeconds float64
}

// Config assembles a simulated device.
type Config struct {
	Name       string
	Technology string // "superconducting", "trapped-ion", "neutral-atom"
	Version    string

	SampleRateHz float64
	Granularity  int
	MinSamples   int
	MaxSamples   int

	Sites     []SiteConfig
	Couplings []CouplingConfig

	// DriveRabiHz is the full-scale single-site Rabi frequency.
	DriveRabiHz float64
	// GateSamples is the default single-qubit pulse length in samples.
	GateSamples int
	// ReadoutSamples is the capture window length.
	ReadoutSamples int64
	// ReadoutFidelity is the per-shot assignment fidelity, used for every
	// site whose SiteConfig does not set its own.
	ReadoutFidelity float64
	// DragBeta is the DRAG coefficient used in calibrated X pulses
	// (0 = plain Gaussian).
	DragBeta float64

	Drift DriftConfig
	// Seed makes drift and shot noise reproducible.
	Seed int64
	// MaxShots caps a single job.
	MaxShots int
	// ShotWorkers is the default number of parallel shot workers a job
	// runs with when the submission does not set its own count
	// (qdmi.JobOptions.ShotWorkers): 0 or 1 serializes, n > 1 spreads a
	// job's independent shots across n goroutines (capped per job at
	// runtime.GOMAXPROCS), and a negative value uses runtime.NumCPU().
	// A job's result never depends on the worker count, scheduling or
	// completion order.
	ShotWorkers int
}

// ouProcess is a discretized Ornstein-Uhlenbeck process:
// dx = -x/τ dt + σ·√(2/τ) dW, stationary std-dev σ.
type ouProcess struct {
	x     float64
	sigma float64
	tau   float64
}

// advance evolves the process by dt seconds using exact OU discretization.
func (p *ouProcess) advance(dt float64, rng *rand.Rand) {
	if p.tau <= 0 || p.sigma == 0 {
		return
	}
	decay := math.Exp(-dt / p.tau)
	noise := p.sigma * math.Sqrt(1-decay*decay)
	p.x = p.x*decay + noise*rng.NormFloat64()
}

// driftState holds the live (true-physics) deviations from nominal.
type driftState struct {
	freqOffsetHz []ouProcess // per site
	ampScale     ouProcess   // global multiplicative drive error (1 + x)
}

func newDriftState(cfg *Config) *driftState {
	ds := &driftState{
		freqOffsetHz: make([]ouProcess, len(cfg.Sites)),
		ampScale:     ouProcess{sigma: cfg.Drift.AmpSigma, tau: cfg.Drift.AmpTauSeconds},
	}
	for i := range ds.freqOffsetHz {
		ds.freqOffsetHz[i] = ouProcess{sigma: cfg.Drift.FreqSigmaHz, tau: cfg.Drift.FreqTauSeconds}
	}
	return ds
}

func (ds *driftState) advance(dt float64, rng *rand.Rand) {
	for i := range ds.freqOffsetHz {
		ds.freqOffsetHz[i].advance(dt, rng)
	}
	ds.ampScale.advance(dt, rng)
}
