package mlir_test

import (
	"math/rand"
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qpi"
)

// BenchmarkVerify times one verification of what a cold compile verifies
// after every pass that writes: the lowered module of a seeded 28-gate
// 2-qubit kernel (the mean length of the benchmark's cold_compile gate
// lists) on a closed two-site tiny simulator.
func BenchmarkVerify(b *testing.B) {
	dev, err := devices.New(devices.Config{
		Name: "tiny-2", Technology: "simulator", Version: "tiny-1.0",
		SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxSamples: 1 << 12,
		DriveRabiHz: 250e6, GateSamples: 8, ReadoutSamples: 8,
		ReadoutFidelity: 0.99, Seed: 7, MaxShots: 1 << 12,
		Sites:     []devices.SiteConfig{{Dim: 2, FreqHz: 5e9}, {Dim: 2, FreqHz: 5.1e9}},
		Couplings: []devices.CouplingConfig{{A: 0, Kind: devices.CouplingZZ, RabiHz: 250e6}},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	k := qpi.NewCircuit("cold", 2, 2)
	for range 28 {
		q := rng.Intn(2)
		switch rng.Intn(6) {
		case 0:
			k.X(q)
		case 1:
			k.H(q)
		case 2:
			k.SX(q)
		case 3:
			k.RX(q, 6*rng.Float64())
		case 4:
			k.RZ(q, 6*rng.Float64())
		case 5:
			k.CZ(q, 1-q)
		}
	}
	if err := k.Measure(0, 0).Measure(1, 1).End(); err != nil {
		b.Fatal(err)
	}
	res, err := compiler.Lower(k, dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := res.MLIR.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
