package compiler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qpi"
)

// randomKernel is a seeded program on a chain of sites: one-qubit gates,
// rotations past ±π, cz and cx on neighbours in either order, user waveforms
// of any length (legalization pads them) on a drive port, delays and
// barriers, then a measurement of every site.
func randomKernel(rng *rand.Rand, sites int) *qpi.Circuit {
	c := qpi.NewCircuit("prop", sites, sites)
	oneQ := []string{"x", "y", "sx", "h", "z", "s", "t"}
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		q := rng.Intn(sites)
		switch rng.Intn(6) {
		case 0:
			c.Gate(oneQ[rng.Intn(len(oneQ))], []int{q})
		case 1:
			c.Gate([]string{"rx", "ry", "rz"}[rng.Intn(3)], []int{q}, (rng.Float64()-0.5)*6*math.Pi)
		case 2:
			a := rng.Intn(sites - 1)
			pair := []int{a, a + 1}
			if rng.Intn(2) == 0 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			c.Gate([]string{"cz", "cx"}[rng.Intn(2)], pair)
		case 3:
			name := fmt.Sprintf("w%d", i)
			amps := make([]complex128, 1+rng.Intn(40))
			for k := range amps {
				amps[k] = complex(0.6*rng.Float64(), 0.2*rng.Float64())
			}
			c.Waveform(name, amps).PlayWaveform(fmt.Sprintf("q%d-drive", q), name)
		case 4:
			c.Delay(fmt.Sprintf("q%d-drive", q), int64(rng.Intn(64)))
		case 5:
			c.Barrier()
		}
	}
	for q := 0; q < sites; q++ {
		c.Measure(q, q)
	}
	return c
}

// linkedWithinLimits resolves a linked schedule and checks what a device can
// play: each play's length and peak are within its port's limits, and no two
// instructions with a duration overlap on one port.
func linkedWithinLimits(s *pulse.Schedule) error {
	sp, err := s.Resolve()
	if err != nil {
		return err
	}
	busy := map[string]int64{} // port → the tick its last instruction ends
	for _, ti := range sp.Timed {
		pid := ti.Instr.PortID()
		port, ok := s.Port(pid)
		if !ok {
			continue // a barrier
		}
		if p, isPlay := ti.Instr.(*pulse.Play); isPlay {
			if err := port.CheckWaveformLen(p.Waveform.Len()); err != nil {
				return err
			}
			if peak := p.Waveform.PeakAmplitude(); peak > port.MaxAmplitude+1e-12 {
				return fmt.Errorf("play peak %g above port %s limit %g", peak, pid, port.MaxAmplitude)
			}
		}
		dur := ti.Instr.Duration(port)
		if dur == 0 {
			continue
		}
		if ti.Start < busy[pid] {
			return fmt.Errorf("overlap on port %s: %s starts at %d, the port is busy until %d", pid, ti.Instr, ti.Start, busy[pid])
		}
		busy[pid] = ti.Start + dur
	}
	return nil
}

// TestCompiledProgramsLinkWithinPortLimits: seeded gate kernels lowered by
// the whole pipeline on each technology's preset link on that device — its
// own link, the one every job takes — into a schedule that resolves with no
// port overlap and every play within its port's limits. A pipeline bug that
// breaks either shows up here, not in a job.
func TestCompiledProgramsLinkWithinPortLimits(t *testing.T) {
	presets := []struct {
		name string
		make func(string, int, int64) (*devices.SimDevice, error)
	}{
		{"sc", devices.Superconducting},
		{"ion", devices.TrappedIon},
		{"atom", devices.NeutralAtom},
	}
	const sites, kernels = 3, 40
	for _, p := range presets {
		dev, err := p.make(p.name, sites, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < kernels; i++ {
			k := randomKernel(rng, sites)
			if err := k.End(); err != nil {
				t.Fatalf("%s kernel %d: %v", p.name, i, err)
			}
			res, err := Lower(k, dev)
			if err != nil {
				t.Fatalf("%s kernel %d: lower: %v", p.name, i, err)
			}
			s, err := dev.BuildScheduleForPayload(res.QIR)
			if err == nil {
				err = linkedWithinLimits(s)
			}
			if err != nil {
				t.Fatalf("%s kernel %d: %v\nops: %+v", p.name, i, err, k.Ops())
			}
		}
	}
}
