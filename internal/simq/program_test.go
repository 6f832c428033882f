package simq

import (
	"reflect"
	"sync"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/waveform"
)

// twoPortProgram resolves a program built by fill on an empty copy of
// twoTransmonRig's ports and frames.
func twoPortProgram(t *testing.T, fill func(s *pulse.Schedule)) *pulse.ScheduledProgram {
	t.Helper()
	s := pulse.NewSchedule()
	for i, id := range []string{"d0", "d1"} {
		if err := s.AddPort(&pulse.Port{ID: id, Kind: pulse.PortDrive, Sites: []int{i},
			SampleRateHz: 1e9, MaxAmplitude: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame([]string{"f0", "f1"}[i], 5.0e9)); err != nil {
			t.Fatal(err)
		}
	}
	fill(s)
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func playGaussian(t *testing.T, s *pulse.Schedule, port, frame string, amp float64, n int) {
	t.Helper()
	w, err := waveform.Gaussian{Amplitude: amp, SigmaFrac: 0.2}.Materialize("g", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&pulse.Play{Port: port, Frame: frame, Waveform: w}); err != nil {
		t.Fatal(err)
	}
}

// sameRun fails unless two runs returned the same bits: counts, IQ records
// and the final state itself.
func sameRun(t *testing.T, what string, got, want *evolved) {
	t.Helper()
	if !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(got.MeasuredBits, want.MeasuredBits) ||
		!reflect.DeepEqual(got.IQ, want.IQ) {
		t.Fatalf("%s: counts/IQ differ:\n%v\n%v", what, got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.FinalState, want.FinalState) || !reflect.DeepEqual(got.FinalDensity, want.FinalDensity) {
		t.Fatalf("%s: final states differ", what)
	}
}

// TestPooledScratchIsClean: a run must not see what earlier runs left in the
// engine it draws from the executor's pool. One executor runs a long
// multi-play detuned program, a capture-free one and a run interrupted
// mid-evolution; the program under test then returns, bit for bit, what it
// returns on an executor that never ran anything, and its counters start
// from zero every time. Both engines: state vector (no collapses) and
// density.
func TestPooledScratchIsClean(t *testing.T) {
	long := func(s *pulse.Schedule) {
		for i := 0; i < 3; i++ {
			playGaussian(t, s, "d0", "f0", 0.3+0.2*float64(i), 40+16*i)
			playConst(t, s, "d1", "f1", 0.5, 30+10*i)
			if err := s.Append(&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.ShiftFrequency, Hz: 3e6}); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(&pulse.FrameUpdate{Port: "d1", Frame: "f1", Kind: pulse.ShiftPhase, Phase: 0.4}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(&pulse.Capture{Port: "d1", Frame: "f1", Bit: 0, DurationSamples: 16}); err != nil {
			t.Fatal(err)
		}
	}
	captureFree := func(s *pulse.Schedule) { playConst(t, s, "d1", "f1", 0.7, 20) }
	endless := func(s *pulse.Schedule) { playGaussian(t, s, "d0", "f0", 0.9, 20000) }

	opts := ExecOptions{Shots: 64, Seed: 5, Readout: &ReadoutModel{Level: readout.LevelKerneled}}
	for name, t1 := range map[string]float64{"state vector": 0, "density": 30e-6} {
		target, ex := twoTransmonRig(t, t1, t1/2)
		_, fresh := twoTransmonRig(t, t1, t1/2)
		want := runSchedule(t, target, fresh, opts)
		if (want.FinalDensity != nil) != (t1 > 0) {
			t.Fatalf("%s rig ran on the other engine", name)
		}

		for round := 0; round < 3; round++ {
			if _, err := ex.Run(twoPortProgram(t, long), opts); err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(twoPortProgram(t, captureFree), opts); err != nil {
				t.Fatal(err)
			}
			polls := 0
			if _, err := ex.Run(twoPortProgram(t, endless), ExecOptions{Shots: 1, Interrupted: func() bool {
				polls++
				return polls > 3
			}}); err != ErrInterrupted {
				t.Fatalf("%s: endless play ended with %v, want ErrInterrupted", name, err)
			}
			got := runSchedule(t, target, ex, opts)
			sameRun(t, name, got, want)
			// The same work every time: as many cache look-ups and dissipator
			// steps as the fresh executor's run, not a running total.
			if got.DissipatorSteps != want.DissipatorSteps ||
				got.PropCacheHits+got.PropCacheMisses != want.PropCacheHits+want.PropCacheMisses {
				t.Fatalf("%s, round %d: engine stats %+v, a fresh executor's %+v", name, round, got.EngineStats, want.EngineStats)
			}
		}
	}
}

// TestProgramRunsMatchExecutorRun: Executor.Run is Prepare plus one
// Program.Run, so a caller that keeps the Program gets what a one-shot
// caller gets, on every run, from any number of goroutines at once — a
// Program is only read.
func TestProgramRunsMatchExecutorRun(t *testing.T) {
	s, ex := twoTransmonRig(t, 30e-6, 20e-6)
	opts := ExecOptions{Shots: 128, Seed: 11, Readout: &ReadoutModel{Level: readout.LevelKerneled}}
	want := runSchedule(t, s, ex, opts)

	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ex.Prepare(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := runEvolved(prog, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(got.IQ, want.IQ) ||
					!reflect.DeepEqual(got.FinalDensity, want.FinalDensity) {
					t.Error("a prepared program's run differs from Executor.Run")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBoundProgramMatchesPrepared: a program prepared with slots and then
// bound to values runs, bit for bit, as the same schedule written with those
// values as literals and prepared from scratch — for a play's samples and
// every kind of frame update — and binding leaves the template's own program
// as it was.
func TestBoundProgramMatchesPrepared(t *testing.T) {
	_, ex := twoTransmonRig(t, 30e-6, 20e-6)
	env, err := waveform.Gaussian{Amplitude: 1, SigmaFrac: 0.2}.Materialize("g", 24)
	if err != nil {
		t.Fatal(err)
	}
	// program writes the schedule at (amp, vals) and marks which
	// instruction takes which of them.
	program := func(amp float64, vals []float64) (*pulse.ScheduledProgram, map[pulse.Instruction]pulse.Slot) {
		w, err := env.Scale(complex(amp, 0))
		if err != nil {
			t.Fatal(err)
		}
		slots := map[pulse.Instruction]pulse.Slot{}
		sp := twoPortProgram(t, func(s *pulse.Schedule) {
			for _, in := range []struct {
				in   pulse.Instruction
				slot pulse.Slot
			}{
				{&pulse.Play{Port: "d0", Frame: "f0", Waveform: w}, pulse.Slot{Samples: 0, Hz: -1, Phase: -1}},
				{&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.ShiftPhase, Phase: vals[0]}, pulse.Slot{Samples: -1, Hz: -1, Phase: 0}},
				{&pulse.FrameUpdate{Port: "d1", Frame: "f1", Kind: pulse.SetFrequency, Hz: vals[1]}, pulse.Slot{Samples: -1, Hz: 1, Phase: -1}},
				{&pulse.Play{Port: "d1", Frame: "f1", Waveform: env}, pulse.Slot{Samples: -1, Hz: -1, Phase: -1}},
				{&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.ShiftFrequency, Hz: vals[2]}, pulse.Slot{Samples: -1, Hz: 2, Phase: -1}},
				{&pulse.FrameUpdate{Port: "d1", Frame: "f1", Kind: pulse.SetPhase, Phase: vals[3]}, pulse.Slot{Samples: -1, Hz: -1, Phase: 3}},
				{&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.FrameChange, Hz: vals[4], Phase: vals[5]}, pulse.Slot{Samples: -1, Hz: 4, Phase: 5}},
				{&pulse.Play{Port: "d0", Frame: "f0", Waveform: w}, pulse.Slot{Samples: 0, Hz: -1, Phase: -1}},
				{&pulse.Play{Port: "d1", Frame: "f1", Waveform: w}, pulse.Slot{Samples: 0, Hz: -1, Phase: -1}},
				{&pulse.Capture{Port: "d0", Frame: "f0", Bit: 0, DurationSamples: 8}, pulse.Slot{Samples: -1, Hz: -1, Phase: -1}},
			} {
				if err := s.Append(in.in); err != nil {
					t.Fatal(err)
				}
				slots[in.in] = in.slot
			}
		})
		return sp, slots
	}
	first := []float64{0.4, 5.001e9, 2e6, -1.1, 4.998e9, 2.9}
	second := []float64{-2.7, 4.997e9, -3e6, 0.6, 5.003e9, -0.2}
	opts := ExecOptions{Shots: 64, Seed: 3, Readout: &ReadoutModel{Level: readout.LevelKerneled}}

	tpl, err := ex.Prepare(program(0.8, first))
	if err != nil {
		t.Fatal(err)
	}
	before, err := runEvolved(tpl, opts)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := env.Scale(0.3)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tpl.Bind(pulse.Binding{Samples: [][]complex128{bound.Samples}, Values: second})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runEvolved(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := program(0.3, second)
	want, err := execEvolved(ex, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "bound program vs the same values prepared as literals", got, want)
	after, err := runEvolved(tpl, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "template program before and after a bind", after, before)
}
