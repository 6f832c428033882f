package simq

import (
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/testutil"
	"mqsspulse/internal/waveform"
)

// oneQubitRig builds a 1-qubit schedule + model with a 1 GS/s drive port and
// the frame resonant at the qubit frequency.
func oneQubitRig(t *testing.T, rabiHz float64, collapses []Collapse) (*pulse.Schedule, *Executor) {
	t.Helper()
	s := pulse.NewSchedule()
	if err := s.AddPort(&pulse.Port{
		ID: "q0-drive-port", Kind: pulse.PortDrive, Sites: []int{0},
		SampleRateHz: 1e9, MaxAmplitude: 1.0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFrame(pulse.NewFrame("q0-drive-frame", 5.0e9)); err != nil {
		t.Fatal(err)
	}
	dims := []int{2}
	model, err := NewSystemModel(dims, nil,
		[]*ControlChannel{QubitDriveChannel("q0-drive-port", dims, 0, rabiHz, 5.0e9)},
		collapses)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewExecutor(model)
}

func playConst(t testing.TB, s *pulse.Schedule, port, frame string, amp float64, n int) {
	t.Helper()
	w, err := waveform.Constant{Amplitude: amp}.Materialize("w", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&pulse.Play{Port: port, Frame: frame, Waveform: w}); err != nil {
		t.Fatal(err)
	}
}

func runSchedule(t *testing.T, s *pulse.Schedule, ex *Executor, opts ExecOptions) *evolved {
	t.Helper()
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := execEvolved(ex, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRabiPiPulse(t *testing.T) {
	// Ω = 2π·10 MHz at full scale; a 50 ns constant pulse is a π rotation.
	s, ex := oneQubitRig(t, 10e6, nil)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 50)
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	p1 := res.FinalState.PopulationOfLevel(0, 1)
	if !(math.Abs(p1-1) <= 1e-3) {
		t.Fatalf("P(1) after π pulse = %g, want ~1", p1)
	}
}

func TestRabiHalfPiPulse(t *testing.T) {
	s, ex := oneQubitRig(t, 10e6, nil)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	p1 := res.FinalState.PopulationOfLevel(0, 1)
	if !(math.Abs(p1-0.5) <= 1e-3) {
		t.Fatalf("P(1) after π/2 pulse = %g, want 0.5", p1)
	}
}

func TestRabiAmplitudeScaling(t *testing.T) {
	// Half amplitude for the same duration gives half the rotation angle.
	s, ex := oneQubitRig(t, 10e6, nil)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 0.5, 50)
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	p1 := res.FinalState.PopulationOfLevel(0, 1)
	want := math.Pow(math.Sin(math.Pi/4), 2) // sin²(θ/2), θ = π/2
	if !(math.Abs(p1-want) <= 1e-3) {
		t.Fatalf("P(1) = %g, want %g", p1, want)
	}
}

func TestGaussianAreaPulse(t *testing.T) {
	// A Gaussian whose area equals that of a full-scale 50 ns square pulse
	// also implements a π rotation (area theorem on resonance).
	g, err := waveform.Gaussian{Amplitude: 1.0, SigmaFrac: 0.18}.Materialize("g", 100)
	if err != nil {
		t.Fatal(err)
	}
	area := g.Area() // in samples
	// Required area for π: Ω·T = π → 2π·Rabi·area·dt = π → Rabi = 1/(2·area·dt)
	rabi := 1 / (2 * area * 1e-9)
	s, ex := oneQubitRig(t, rabi, nil)
	if err := s.Append(&pulse.Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: g}); err != nil {
		t.Fatal(err)
	}
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	p1 := res.FinalState.PopulationOfLevel(0, 1)
	if !(math.Abs(p1-1) <= 1e-3) {
		t.Fatalf("P(1) after Gaussian π pulse = %g, want ~1", p1)
	}
}

func TestVirtualZPhaseGate(t *testing.T) {
	// X(π/2) · shift_phase(π) · X(π/2) = identity (up to global phase):
	// the second pulse is driven along -X and undoes the first.
	s, ex := oneQubitRig(t, 10e6, nil)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
	if err := s.Append(&pulse.FrameUpdate{Port: "q0-drive-port", Frame: "q0-drive-frame", Kind: pulse.ShiftPhase, Phase: math.Pi}); err != nil {
		t.Fatal(err)
	}
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	p0 := res.FinalState.PopulationOfLevel(0, 0)
	if !(math.Abs(p0-1) <= 1e-3) {
		t.Fatalf("P(0) = %g, want 1 (echo via virtual Z)", p0)
	}
}

func TestVirtualZHalfPhaseMakesY(t *testing.T) {
	// Two π/2 pulses with a π/2 phase shift between them: X(π/2)·Y(π/2).
	// Starting from |0⟩ this lands on the equator... verify by comparing to
	// matrix product.
	s, ex := oneQubitRig(t, 10e6, nil)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
	if err := s.Append(&pulse.FrameUpdate{Port: "q0-drive-port", Frame: "q0-drive-frame", Kind: pulse.ShiftPhase, Phase: math.Pi / 2}); err != nil {
		t.Fatal(err)
	}
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})

	// Reference: RY(π/2)·RX(π/2)|0⟩ — note our drive phase convention:
	// H = (Ω/2)(cos φ·X + sin φ·Y) with χ = e^{-iφ}.
	want := newState([]int{2})
	want.ApplyAt(testutil.RX(math.Pi/2), 0)
	want.ApplyAt(testutil.RY(math.Pi/2), 0)
	f := Fidelity(res.FinalState.State, want.State)
	if !(math.Abs(f-1) <= 1e-3) {
		t.Fatalf("fidelity vs RY·RX = %g, want 1", f)
	}
}

func TestRamseyDetuningFringe(t *testing.T) {
	// π/2 — idle τ — π/2 with the frame detuned by Δf from the qubit:
	// P(1) = cos²(π·Δf·τ) for drive phase latched at each pulse start.
	// With the frame detuned, the second pulse's modulation e^{-i2πΔf·t}
	// accumulates phase during the idle, producing the fringe.
	detune := 20e6 // 20 MHz
	for _, tauTicks := range []int64{0, 5, 10, 20, 25} {
		s, ex := oneQubitRig(t, 10e6, nil)
		f := frameByID(s, "q0-drive-frame")
		f.Apply(pulse.SetFrequency, 5.0e9+detune, 0)
		playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
		if tauTicks > 0 {
			if err := s.Append(&pulse.Delay{Port: "q0-drive-port", Samples: tauTicks}); err != nil {
				t.Fatal(err)
			}
		}
		playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 25)
		res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
		p1 := res.FinalState.PopulationOfLevel(0, 1)
		// The detuning also acts during the 25ns pulses, so compare against
		// a directly integrated reference rather than the ideal formula.
		ref := ramseyReference(t, detune, 10e6, 25, tauTicks)
		if !(math.Abs(p1-ref) <= 5e-3) {
			t.Fatalf("tau=%d: P(1) = %g, reference %g", tauTicks, p1, ref)
		}
	}
}

// ramseyReference integrates the same dynamics directly with matrices.
func ramseyReference(t *testing.T, detune, rabi float64, pulseTicks, idleTicks int64) float64 {
	t.Helper()
	dt := 1e-9
	psi := []complex128{1, 0}
	x := linalg.PauliX()
	y := linalg.PauliY()
	for tick := int64(0); tick < 2*pulseTicks+idleTicks; tick++ {
		driven := tick < pulseTicks || tick >= pulseTicks+idleTicks
		h := linalg.NewMatrix(2, 2)
		if driven {
			tAbs := float64(tick) * dt
			phase := -2 * math.Pi * detune * tAbs
			hx := x.Scale(complex(math.Pi*rabi*math.Cos(phase), 0))
			hy := y.Scale(complex(-math.Pi*rabi*math.Sin(phase), 0))
			h = hx.Add(hy)
		}
		u, err := linalg.ExpI(h, dt)
		if err != nil {
			t.Fatal(err)
		}
		psi = testutil.MulVec(u, psi)
	}
	return real(psi[1])*real(psi[1]) + imag(psi[1])*imag(psi[1])
}

func TestDRAGReducesLeakage(t *testing.T) {
	// 3-level transmon with -200 MHz anharmonicity: a fast Gaussian π pulse
	// leaks into |2⟩; DRAG with β ≈ 1/(2π·|α|·dt-ish) scaling reduces it.
	anharm := -200e6
	dims := []int{3}
	drift := TransmonDrift(dims, 0, 0, anharm)
	mk := func(w *waveform.Waveform) float64 {
		s := pulse.NewSchedule()
		if err := s.AddPort(&pulse.Port{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0},
			SampleRateHz: 1e9, MaxAmplitude: 1.0}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame("f0", 5.0e9)); err != nil {
			t.Fatal(err)
		}
		model, err := NewSystemModel(dims, drift,
			[]*ControlChannel{TransmonDriveChannel("d0", dims, 0, 40e6, 5.0e9)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: w}); err != nil {
			t.Fatal(err)
		}
		res := runSchedule(t, s, NewExecutor(model), ExecOptions{Shots: 1})
		return res.FinalState.PopulationOfLevel(0, 2)
	}
	g, err := waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}.Materialize("g", 24)
	if err != nil {
		t.Fatal(err)
	}
	// β in samples: derivative term scale ≈ 1/(2π·|α|·dt)
	beta := 1 / (2 * math.Pi * math.Abs(anharm) * 1e-9)
	d, err := waveform.DRAG{Amplitude: 0.5, SigmaFrac: 0.2, Beta: beta}.Materialize("d", 24)
	if err != nil {
		t.Fatal(err)
	}
	leakG := mk(g)
	leakD := mk(d)
	if leakD >= leakG {
		t.Fatalf("DRAG leakage %g not below Gaussian leakage %g", leakD, leakG)
	}
	if leakG < 1e-6 {
		t.Fatalf("Gaussian leakage suspiciously low (%g); test not probing leakage", leakG)
	}
}

func TestZZCouplerCZPhase(t *testing.T) {
	// Drive the ZZ coupler so |11⟩ acquires exactly phase π (a CZ).
	dims := []int{2, 2}
	s := pulse.NewSchedule()
	ports := []*pulse.Port{
		{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1},
		{ID: "d1", Kind: pulse.PortDrive, Sites: []int{1}, SampleRateHz: 1e9, MaxAmplitude: 1},
		{ID: "c01", Kind: pulse.PortCoupler, Sites: []int{0, 1}, SampleRateHz: 1e9, MaxAmplitude: 1},
	}
	for _, p := range ports {
		if err := s.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"f0", "f1", "fc"} {
		if err := s.AddFrame(pulse.NewFrame(f, 5.0e9)); err != nil {
			t.Fatal(err)
		}
	}
	rabiC := 10e6
	model, err := NewSystemModel(dims, nil, []*ControlChannel{
		QubitDriveChannel("d0", dims, 0, 10e6, 5.0e9),
		QubitDriveChannel("d1", dims, 1, 10e6, 5.0e9),
		ZZCouplerChannel("c01", dims, 0, rabiC),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare |++⟩ via two π/2 pulses, then coupler pulse for CZ time, then
	// analyze: CZ|++⟩ = |Φ⟩ entangled; verify via direct matrix reference.
	playConst(t, s, "d0", "f0", 1.0, 25)
	playConst(t, s, "d1", "f1", 1.0, 25)
	if err := s.Append(&pulse.Barrier{}); err != nil {
		t.Fatal(err)
	}
	// CZ phase: H = π·Rabi·s·ZZproj ⇒ θ = π·Rabi·s·T; want θ=π ⇒ T = 1/(Rabi·s)
	ticks := int(1 / (rabiC * 1.0) / 1e-9) // 100 ticks
	playConst(t, s, "c01", "fc", 1.0, ticks)
	res := runSchedule(t, s, NewExecutor(model), ExecOptions{Shots: 1})

	want := newState(dims)
	want.ApplyAt(testutil.RX(math.Pi/2), 0)
	want.ApplyAt(testutil.RX(math.Pi/2), 1)
	want.ApplyTwo(testutil.CZ(), 0, 1)
	f := Fidelity(res.FinalState.State, want.State)
	if !(math.Abs(f-1) <= 2e-3) {
		t.Fatalf("CZ fidelity = %g, want ~1", f)
	}
}

func TestExchangeCouplerISwap(t *testing.T) {
	// Exchange drive for time T with θ = 2π·Rabi·s·T/2... verify population
	// transfer |10⟩ → |01⟩ at the iSWAP point.
	dims := []int{2, 2}
	s := pulse.NewSchedule()
	for _, p := range []*pulse.Port{
		{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1},
		{ID: "c01", Kind: pulse.PortCoupler, Sites: []int{0, 1}, SampleRateHz: 1e9, MaxAmplitude: 1},
	} {
		if err := s.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"f0", "fc"} {
		if err := s.AddFrame(pulse.NewFrame(f, 5.0e9)); err != nil {
			t.Fatal(err)
		}
	}
	rabi := 10e6
	model, err := NewSystemModel(dims, nil, []*ControlChannel{
		QubitDriveChannel("d0", dims, 0, 10e6, 5.0e9),
		ExchangeCouplerChannel("c01", dims, 0, rabi),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	playConst(t, s, "d0", "f0", 1.0, 50) // π pulse → |10⟩
	if err := s.Append(&pulse.Barrier{}); err != nil {
		t.Fatal(err)
	}
	// H = π·Rabi(σ+σ- + σ-σ+); full transfer when π·Rabi·T = π/2... the
	// 2x2 block {|10⟩,|01⟩} has coupling π·Rabi so transfer at T = 1/(2·Rabi).
	ticks := int(1 / (2 * rabi) / 1e-9) // 50 ticks
	playConst(t, s, "c01", "fc", 1.0, ticks)
	res := runSchedule(t, s, NewExecutor(model), ExecOptions{Shots: 1})
	p01 := 0.0
	for i, a := range res.FinalState.Amp {
		if SiteLevel(dims, i, 0) == 0 && SiteLevel(dims, i, 1) == 1 {
			p01 += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	if !(math.Abs(p01-1) <= 2e-3) {
		t.Fatalf("iSWAP transfer P(01) = %g, want ~1", p01)
	}
}

func TestExecutorWithDecoherenceRabi(t *testing.T) {
	// A π pulse with strong T1 lands below P(1)=1.
	dims := []int{2}
	cs := RelaxationCollapses(dims, 0, 1e-6, 0.8e-6)
	s, ex := oneQubitRig(t, 10e6, cs)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 50)
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	if res.FinalDensity == nil {
		t.Fatal("decoherent run should use the density engine")
	}
	p1 := res.FinalDensity.PopulationOfLevel(0, 1)
	if !(p1 <= 0.999 && p1 >= 0.9) {
		t.Fatalf("P(1) = %g, want slightly degraded from 1", p1)
	}
	if err := res.FinalDensity.CheckPhysical(1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureCountsAndReadoutError(t *testing.T) {
	s, ex := oneQubitRig(t, 10e6, nil)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 50) // π pulse
	if err := s.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 100}); err != nil {
		t.Fatal(err)
	}
	res := runSchedule(t, s, ex, ExecOptions{Shots: 4000, Seed: 7})
	if res.Counts[1] != 4000 {
		t.Fatalf("ideal π pulse readout: %v", res.Counts)
	}
	// With 10% 1→0 readout error roughly 10% flip.
	res2 := runSchedule(t, s, ex, ExecOptions{Shots: 4000, Seed: 7, SiteError: flips(0, 0.1)})
	frac := float64(res2.Counts[0]) / 4000
	if !(math.Abs(frac-0.1) <= 0.03) {
		t.Fatalf("readout error rate %g, want ~0.1", frac)
	}
}

// TestCaptureBitBeyondOutcomeRejected: a shot's outcome is one 64-bit
// mask, so a capture lands at its bit up to bit 63 and a capture into bit
// 64 or above is refused when it is appended instead of silently reading 0.
func TestCaptureBitBeyondOutcomeRejected(t *testing.T) {
	for _, bit := range []int{3, 63, 64, 65} {
		s, ex := oneQubitRig(t, 10e6, nil)
		playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 50) // π pulse
		err := s.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: bit, DurationSamples: 100})
		if bit >= 64 {
			if err == nil {
				t.Fatalf("capture into bit %d accepted", bit)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		res := runSchedule(t, s, ex, ExecOptions{Shots: 100, Seed: 7})
		if want := map[uint64]int{1 << uint(bit): 100}; !maps.Equal(res.Counts, want) {
			t.Fatalf("capture into bit %d after a π pulse: counts %v, want %v", bit, res.Counts, want)
		}
	}
}

func TestCaptureDoubleWriteRejected(t *testing.T) {
	s, ex := oneQubitRig(t, 10e6, nil)
	_ = s.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 10})
	_ = s.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 10})
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(sp, ExecOptions{Shots: 1}); err == nil {
		t.Fatal("double classical-bit write accepted")
	}
}

func TestRunUnknownPort(t *testing.T) {
	s := pulse.NewSchedule()
	if err := s.AddPort(&pulse.Port{ID: "mystery", Kind: pulse.PortDrive, Sites: []int{0},
		SampleRateHz: 1e9, MaxAmplitude: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFrame(pulse.NewFrame("f", 5e9)); err != nil {
		t.Fatal(err)
	}
	w, _ := waveform.Constant{Amplitude: 0.5}.Materialize("w", 8)
	_ = s.Append(&pulse.Play{Port: "mystery", Frame: "f", Waveform: w})
	sp, _ := s.Resolve()
	dims := []int{2}
	model, _ := NewSystemModel(dims, nil,
		[]*ControlChannel{QubitDriveChannel("other", dims, 0, 1e6, 5e9)}, nil)
	if _, err := NewExecutor(model).Run(sp, ExecOptions{Shots: 1}); err == nil {
		t.Fatal("play on unmodeled port accepted")
	}
}

func TestCancelDuringLongPlay(t *testing.T) {
	// A single 100k-sample Play is one integration segment; cancellation
	// must land mid-pulse (the driven loop polls every 1024 ticks), not
	// after the whole pulse has been integrated. The Interrupted callback
	// reports false on its first poll (the segment boundary) and true from
	// then on, so only the in-loop polling can abort the run. The Gaussian
	// steps tick by tick. An open-system square at sc-2 (n = 9) is one
	// stretch map, whose build consults Interrupted between its squarings,
	// so the abort lands inside the build and stores no map; at three d = 3
	// sites (n = 27) the square is never a map and steps tick by tick.
	s, ex := oneQubitRig(t, 10e6, nil)
	w, err := waveform.Gaussian{Amplitude: 0.9, SigmaFrac: 0.2}.Materialize("long", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&pulse.Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w}); err != nil {
		t.Fatal(err)
	}
	gaussian, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	square := resonantProgram(t, func(s *pulse.Schedule) { playConst(t, s, "d0", "f0", 0.5, 100000) })
	for _, c := range []struct {
		name string
		ex   *Executor
		sp   *pulse.ScheduledProgram
	}{
		{"gaussian", ex, gaussian},
		{"open square, n = 9", twoTransmonOpenRig(t), square},
		{"open square, n = 27", openRig(t, []int{3, 3, 3}), square},
	} {
		calls := 0
		_, err = c.ex.Run(c.sp, ExecOptions{Shots: 1, Interrupted: func() bool {
			calls++
			return calls > 1
		}})
		if err != ErrInterrupted {
			t.Fatalf("%s: err = %v, want ErrInterrupted", c.name, err)
		}
		// Two segment-boundary-equivalent polls plus at most a few
		// in-loop polls: the abort must not have waited for the full
		// 100k samples (which would have needed ~97 further polls).
		if calls > 5 {
			t.Fatalf("%s: %d polls before abort; cancellation latency unbounded", c.name, calls)
		}
		if n := c.ex.maps.size(); n != 0 {
			t.Fatalf("%s: %d stretch maps stored; the abort must land before a build ends", c.name, n)
		}
	}
}

func TestMixedSampleRateDiagnostic(t *testing.T) {
	// The diagnostic must print two *rates*; it used to mix a rate with a
	// period (1/dt vs p.Dt()).
	s := pulse.NewSchedule()
	for i, rate := range []float64{1e9, 2e9} {
		if err := s.AddPort(&pulse.Port{ID: portID(i), Kind: pulse.PortDrive, Sites: []int{i},
			SampleRateHz: rate, MaxAmplitude: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{2, 2}
	model, err := NewSystemModel(dims, nil,
		[]*ControlChannel{QubitDriveChannel(portID(0), dims, 0, 1e6, 5e9)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewExecutor(model).Run(sp, ExecOptions{Shots: 1})
	if err == nil {
		t.Fatal("mixed sample rates accepted")
	}
	msg := err.Error()
	for _, want := range []string{"1e+09", "2e+09"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic %q does not mention rate %s", msg, want)
		}
	}
}

func portID(i int) string { return fmt.Sprintf("p%d", i) }

func TestSystemModelValidation(t *testing.T) {
	dims := []int{2}
	ch := QubitDriveChannel("p", dims, 0, 1e6, 5e9)
	if _, err := NewSystemModel([]int{1}, nil, nil, nil); err == nil {
		t.Fatal("bad dims accepted")
	}
	if _, err := NewSystemModel(dims, linalg.NewMatrix(3, 3), nil, nil); err == nil {
		t.Fatal("bad drift dim accepted")
	}
	nonHerm := linalg.NewMatrix(2, 2)
	nonHerm.Set(0, 1, 1)
	if _, err := NewSystemModel(dims, nonHerm, nil, nil); err == nil {
		t.Fatal("non-Hermitian drift accepted")
	}
	// A NaN entry passes IsHermitian's tolerance comparison.
	for _, v := range []complex128{cmplx.NaN(), complex(math.Inf(1), 0)} {
		nonFinite := linalg.NewMatrix(2, 2)
		nonFinite.Set(1, 1, v)
		if _, err := NewSystemModel(dims, nonFinite, nil, nil); err == nil {
			t.Fatalf("drift with entry %v accepted", v)
		}
		op := *ch
		op.OpRaise, op.opSparse = nonFinite, nil
		if _, err := NewSystemModel(dims, nil, []*ControlChannel{&op}, nil); err == nil {
			t.Fatalf("channel operator with entry %v accepted", v)
		}
		if _, err := NewSystemModel(dims, nil, nil, []Collapse{{L: nonFinite, Rate: 1e4}}); err == nil {
			t.Fatalf("collapse operator with entry %v accepted", v)
		}
	}
	if _, err := NewSystemModel(dims, nil, []*ControlChannel{ch, ch}, nil); err == nil {
		t.Fatal("duplicate channel accepted")
	}
	bad := *ch
	bad.RabiHz = 0
	if _, err := NewSystemModel(dims, nil, []*ControlChannel{&bad}, nil); err == nil {
		t.Fatal("zero Rabi accepted")
	}
	bad2 := *ch
	bad2.PortID = ""
	if _, err := NewSystemModel(dims, nil, []*ControlChannel{&bad2}, nil); err == nil {
		t.Fatal("empty port ID accepted")
	}
	lower := linalg.Annihilation(2)
	for name, c := range map[string]Collapse{
		"nil operator":  {L: nil, Rate: 1e4},
		"3x3 operator":  {L: linalg.Annihilation(3), Rate: 1e4},
		"negative rate": {L: lower, Rate: -1e4},
		"NaN rate":      {L: lower, Rate: math.NaN()},
		"infinite rate": {L: lower, Rate: math.Inf(1)},
	} {
		if _, err := NewSystemModel(dims, nil, nil, []Collapse{c}); err == nil {
			t.Fatalf("collapse with %s accepted", name)
		}
	}
	model, err := NewSystemModel(dims, nil, nil, []Collapse{{L: lower, Rate: 0}})
	if err != nil || !model.collapse.empty() {
		t.Fatalf("zero-rate collapse: err %v, want it accepted and dropped", err)
	}
}

func TestDriveTermHermiticity(t *testing.T) {
	dims := []int{2}
	ch := QubitDriveChannel("p", dims, 0, 5e6, 5e9)
	h := linalg.NewMatrix(2, 2)
	chi := cmplx.Exp(complex(0, 0.7)) * 0.3
	ch.driveTerm(h, chi)
	if !h.IsHermitian(1e-12) {
		t.Fatal("drive term is not Hermitian")
	}
	// Magnitude: |H01| = π·Rabi·|χ|
	want := math.Pi * 5e6 * 0.3
	if got := cmplx.Abs(h.At(0, 1)); !(math.Abs(got-want) <= 1e-3) {
		t.Fatalf("drive magnitude %g, want %g", got, want)
	}
}

func TestExecutorDensityPhysicalInvariants(t *testing.T) {
	// Property: random pulse programs on a decoherent transmon keep the
	// density matrix physical (unit trace, populations in [0,1]).
	rng := rand.New(rand.NewSource(2024))
	dims := []int{3}
	drift := TransmonDrift(dims, 0, 0, -220e6)
	cs := RelaxationCollapses(dims, 0, 30e-6, 20e-6)
	for trial := 0; trial < 10; trial++ {
		s := pulse.NewSchedule()
		if err := s.AddPort(&pulse.Port{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0},
			SampleRateHz: 1e9, MaxAmplitude: 1.0}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame("f0", 5.0e9)); err != nil {
			t.Fatal(err)
		}
		model, err := NewSystemModel(dims, drift,
			[]*ControlChannel{TransmonDriveChannel("d0", dims, 0, 40e6, 5.0e9)}, cs)
		if err != nil {
			t.Fatal(err)
		}
		nops := 1 + rng.Intn(6)
		for i := 0; i < nops; i++ {
			switch rng.Intn(3) {
			case 0:
				w, err := waveform.Gaussian{Amplitude: 0.2 + 0.7*rng.Float64(),
					SigmaFrac: 0.15 + 0.1*rng.Float64()}.Materialize("w", 16+rng.Intn(48))
				if err != nil {
					t.Fatal(err)
				}
				_ = s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: w})
			case 1:
				_ = s.Append(&pulse.Delay{Port: "d0", Samples: int64(rng.Intn(3000))})
			case 2:
				_ = s.Append(&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.ShiftPhase, Phase: rng.Float64() * 6})
			}
		}
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := execEvolved(NewExecutor(model), sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDensity == nil {
			t.Fatal("density engine expected")
		}
		if err := res.FinalDensity.CheckPhysical(1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
