package main

import (
	"fmt"
	"math"
	"math/rand"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/qpi"
)

// Input sizes. A cold kernel has minGates to maxGates gates, and
// coldKernels is 200 kernels of each length: twice
// client.DefaultCacheEntries, so cycling through the kernels evicts every
// entry before it could be hit again.
const (
	minGates, maxGates = 8, 48
	coldKernels        = 200 * (maxGates - minGates + 1)

	sweepPoints  = 1024
	burstJobs    = 64
	fleetMembers = 4
	// burstDirectEvery makes every fourth burst job name fleet member 0
	// (16 of 64); the other 48 target the pool.
	burstDirectEvery = 4
)

// gate is one entry of a generated cold_compile gate list.
type gate struct {
	Name  string  // x, h, sx, rx, rz or cz
	Q     int     // target qubit; cz acts on both
	Theta float64 // rotation angle of rx and rz
}

// inputs is everything the seed decides; the stack under test sees only
// these values.
type inputs struct {
	seed    int64
	devSeed int64     // seed of every simulated device
	cold    [][]gate  // coldKernels gate lists
	angles  []float64 // sweepPoints Rabi angles inside (0, π]
	prios   []int     // burstJobs priorities, 0–3
}

// minSweepAngle keeps every sweep angle inside the template's legal (0, π]
// rotation interval.
const minSweepAngle = math.Pi / sweepPoints

// genInputs derives the benchmark inputs from the seed.
func genInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, devSeed: 1 + rng.Int63n(1<<30)}
	names := []string{"x", "h", "sx", "rx", "rz", "cz"}
	// Every run of maxGates−minGates+1 consecutive kernels holds each
	// length once, in a seeded order: the mean kernel size of a window is
	// then the same whatever the seed and however many jobs the machine
	// got through, which keeps allocs_per_job comparable between runs.
	in.cold = make([][]gate, 0, coldKernels)
	for len(in.cold) < coldKernels {
		for _, extra := range rng.Perm(maxGates - minGates + 1) {
			gs := make([]gate, minGates+extra)
			for j := range gs {
				gs[j] = gate{Name: names[rng.Intn(len(names))], Q: rng.Intn(2)}
				if gs[j].Name == "rx" || gs[j].Name == "rz" {
					gs[j].Theta = 2 * math.Pi * rng.Float64()
				}
			}
			in.cold = append(in.cold, gs)
		}
	}
	in.angles = make([]float64, sweepPoints)
	for i := range in.angles {
		in.angles[i] = minSweepAngle + (math.Pi-minSweepAngle)*rng.Float64()
	}
	in.prios = make([]int, burstJobs)
	for i := range in.prios {
		in.prios[i] = rng.Intn(4)
	}
	return in
}

// buildKernel replays a gate list through the qpi builder and measures both
// qubits.
func buildKernel(name string, gates []gate) (*qpi.Circuit, error) {
	c := qpi.NewCircuit(name, 2, 2)
	for _, g := range gates {
		switch g.Name {
		case "x":
			c.X(g.Q)
		case "h":
			c.H(g.Q)
		case "sx":
			c.SX(g.Q)
		case "rx":
			c.RX(g.Q, g.Theta)
		case "rz":
			c.RZ(g.Q, g.Theta)
		case "cz":
			c.CZ(g.Q, 1-g.Q)
		default:
			return nil, fmt.Errorf("benchmark: unknown gate %q", g.Name)
		}
	}
	c.Measure(0, 0).Measure(1, 1)
	return c, c.End()
}

// xKernel is the one-qubit X+Measure kernel of the cached-job workloads.
func xKernel() (*qpi.Circuit, error) {
	k := qpi.NewCircuit("x_measure", 1, 1).X(0).Measure(0, 0)
	return k, k.End()
}

// tinyReadoutFidelity is the assignment fidelity of every tiny-N site; the
// reference checks derive their bounds from it.
const tinyReadoutFidelity = 0.99

// tinyConfig is the benchmark's own minimal simulator (dim-2 sites,
// 8-sample gates, as experiments.fleetBenchConfig): simulation costs
// microseconds, so a job on it measures the stack around the simulator.
// coherence is T1 = T2 in seconds; 0 makes the system closed.
func tinyConfig(name string, sites int, seed int64, coherence float64) devices.Config {
	cfg := devices.Config{
		Name: name, Technology: "simulator", Version: "tiny-1.0",
		SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxSamples: 1 << 12,
		DriveRabiHz: 250e6, GateSamples: 8, ReadoutSamples: 8,
		ReadoutFidelity: tinyReadoutFidelity, Seed: seed, MaxShots: 1 << 12,
	}
	for i := 0; i < sites; i++ {
		cfg.Sites = append(cfg.Sites, devices.SiteConfig{
			Dim: 2, FreqHz: 5e9 + 0.1e9*float64(i), T1Seconds: coherence, T2Seconds: coherence,
		})
	}
	for i := 0; i+1 < sites; i++ {
		cfg.Couplings = append(cfg.Couplings, devices.CouplingConfig{A: i, Kind: devices.CouplingZZ, RabiHz: 250e6})
	}
	return cfg
}
