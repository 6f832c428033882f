package devices

// Preset device configurations for the three technologies the paper's
// Technical Exchange Meetings covered (Section 6): superconducting
// transmons, trapped ions, and neutral atoms. Timescales, coherence, and
// drift rates follow the magnitudes the paper cites in Section 2.1:
// superconducting qubit frequencies drift on minutes-to-hours scales,
// trapped-ion motional modes drift a few hundred hertz hour-to-hour, and
// neutral-atom laser systems need minute-scale recalibration.

import "fmt"

// Preset builds the device a command-line -device flag names: "sc"
// ("superconducting"), "ion" ("trapped-ion") or "atom" ("neutral-atom"),
// called name, with sites sites and the given seed.
func Preset(preset, name string, sites int, seed int64) (*SimDevice, error) {
	switch preset {
	case "sc", "superconducting":
		return Superconducting(name, sites, seed)
	case "ion", "trapped-ion":
		return TrappedIon(name, sites, seed)
	case "atom", "neutral-atom":
		return NeutralAtom(name, sites, seed)
	default:
		return nil, fmt.Errorf("unknown device preset %q (sc, ion, atom)", preset)
	}
}

// Superconducting returns a transmon device: 3-level sites with
// anharmonicity (so DRAG matters), nanosecond gates, ZZ couplers, and
// frequency drift on the tens-of-minutes scale.
func Superconducting(name string, sites int, seed int64) (*SimDevice, error) {
	cfg := Config{
		Name:         name,
		Technology:   "superconducting",
		Version:      "sc-sim-1.0",
		SampleRateHz: 1e9, // 1 GS/s AWG
		Granularity:  8,
		MinSamples:   8,
		MaxSamples:   1 << 16,

		DriveRabiHz:     40e6,
		GateSamples:     32,
		ReadoutSamples:  96,
		ReadoutFidelity: 0.985,
		DragBeta:        0.72, // per-sample β ≈ 1/(2π·|α|·dt), α = -220 MHz

		Drift: DriftConfig{
			FreqSigmaHz:    30e3,    // tens of kHz excursions
			FreqTauSeconds: 45 * 60, // correlation time ~45 minutes
			AmpSigma:       0.004,
			AmpTauSeconds:  2 * 3600,
		},
		Seed:     seed,
		MaxShots: 1 << 17,
	}
	// Realistic per-site readout spread around the device-wide figure:
	// fabrication variance makes some resonators read out better than
	// others.
	scReadout := []float64{0.991, 0.985, 0.979, 0.987, 0.982}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, SiteConfig{
			Dim:             3,
			FreqHz:          4.9e9 + 0.15e9*float64(i),
			AnharmHz:        -220e6,
			T1Seconds:       80e-6,
			T2Seconds:       60e-6,
			ReadoutFidelity: scReadout[i%len(scReadout)],
		})
	}
	for i := 0; i+1 < sites; i++ {
		cfg.Couplings = append(cfg.Couplings, CouplingConfig{A: i, Kind: CouplingZZ, RabiHz: 25e6})
	}
	return New(cfg)
}

// SuperconductingWithCoherence returns the transmon preset with overridden
// T1/T2, used by the ctrl-VQE experiments to study decoherence regimes.
func SuperconductingWithCoherence(name string, sites int, t1, t2 float64, seed int64) (*SimDevice, error) {
	d, err := Superconducting(name, sites, seed)
	if err != nil {
		return nil, err
	}
	cfg := d.cfg
	cfg.Sites = append([]SiteConfig(nil), d.cfg.Sites...)
	cfg.Couplings = append([]CouplingConfig(nil), d.cfg.Couplings...)
	for i := range cfg.Sites {
		cfg.Sites[i].T1Seconds = t1
		cfg.Sites[i].T2Seconds = t2
	}
	return New(cfg)
}

// TrappedIon returns an ion-trap device: two-level optical qubits, long
// coherence, microsecond-scale gates through a shared motional bus
// (light-shift ZZ entangler), and slow but steady motional-frequency drift
// expressed as coupling-strength error.
func TrappedIon(name string, sites int, seed int64) (*SimDevice, error) {
	cfg := Config{
		Name:         name,
		Technology:   "trapped-ion",
		Version:      "ion-sim-1.0",
		SampleRateHz: 1e8, // 10 ns samples: slower AOM/DDS control
		Granularity:  4,
		MinSamples:   4,
		MaxSamples:   1 << 20,

		DriveRabiHz:     250e3, // ~µs single-qubit gates
		GateSamples:     500,   // 5 µs
		ReadoutSamples:  2000,  // 20 µs fluorescence window
		ReadoutFidelity: 0.996,
		DragBeta:        0, // plain Gaussian; no leakage level modeled

		Drift: DriftConfig{
			// Motional-mode drift: hundreds of Hz per hour against ~100 kHz
			// couplings appears as a relative coupling error; qubit carrier
			// itself is optical-clock stable.
			FreqSigmaHz:    15,
			FreqTauSeconds: 6 * 3600,
			AmpSigma:       0.006, // gate-strength error from mode drift
			AmpTauSeconds:  3600,
		},
		Seed:     seed,
		MaxShots: 1 << 16,
	}
	// Fluorescence detection varies with ion position in the chain.
	ionReadout := []float64{0.997, 0.996, 0.994, 0.9965}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, SiteConfig{
			Dim:             2,
			FreqHz:          411e12 / 1e3, // optical transition, scaled into the solver's f64 comfort zone
			T1Seconds:       10.0,         // seconds-long T1
			T2Seconds:       0.2,
			ReadoutFidelity: ionReadout[i%len(ionReadout)],
		})
	}
	for i := 0; i+1 < sites; i++ {
		cfg.Couplings = append(cfg.Couplings, CouplingConfig{A: i, Kind: CouplingZZ, RabiHz: 60e3})
	}
	return New(cfg)
}

// NeutralAtom returns a neutral-atom device: two-level Rydberg-blockade
// qubits, MHz-scale global drives, and fast laser-power drift requiring
// minute-scale recalibration.
func NeutralAtom(name string, sites int, seed int64) (*SimDevice, error) {
	cfg := Config{
		Name:         name,
		Technology:   "neutral-atom",
		Version:      "atom-sim-1.0",
		SampleRateHz: 5e8, // 2 ns samples
		Granularity:  2,
		MinSamples:   2,
		MaxSamples:   1 << 18,

		DriveRabiHz:     2e6, // MHz Raman drives
		GateSamples:     300, // 600 ns
		ReadoutSamples:  5000,
		ReadoutFidelity: 0.98,
		DragBeta:        0,

		Drift: DriftConfig{
			FreqSigmaHz:    5e3, // light shifts from laser power
			FreqTauSeconds: 90,  // minute-scale — the dominant calibration burden
			AmpSigma:       0.01,
			AmpTauSeconds:  120,
		},
		Seed:     seed,
		MaxShots: 1 << 16,
	}
	// Imaging fidelity varies across the tweezer array (spot inhomogeneity).
	atomReadout := []float64{0.985, 0.978, 0.982, 0.974}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, SiteConfig{
			Dim:             2,
			FreqHz:          1.0e9, // hyperfine splitting scale
			T1Seconds:       4.0,
			T2Seconds:       1.5e-3,
			ReadoutFidelity: atomReadout[i%len(atomReadout)],
		})
	}
	for i := 0; i+1 < sites; i++ {
		cfg.Couplings = append(cfg.Couplings, CouplingConfig{A: i, Kind: CouplingZZ, RabiHz: 1.5e6})
	}
	return New(cfg)
}
