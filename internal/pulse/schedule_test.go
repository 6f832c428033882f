package pulse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mqsspulse/internal/waveform"
)

func testPort(id string, kind PortKind, sites ...int) *Port {
	return &Port{
		ID: id, Kind: kind, Sites: sites,
		SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxAmplitude: 1.0,
	}
}

func wf(t *testing.T, name string, n int) *waveform.Waveform {
	t.Helper()
	w, err := waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}.Materialize(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkNoOverlap checks what Resolve promises: no two duration-carrying
// instructions overlap on one port.
func checkNoOverlap(sp *ScheduledProgram) error {
	type span struct{ start, end int64 }
	perPort := map[string][]span{}
	for _, ti := range sp.Timed {
		pid := ti.Instr.PortID()
		if pid == "" {
			continue
		}
		dur := ti.Instr.Duration(sp.Schedule.ports[pid])
		if dur == 0 {
			continue
		}
		perPort[pid] = append(perPort[pid], span{ti.Start, ti.Start + dur})
	}
	for pid, spans := range perPort {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				return fmt.Errorf("overlap on port %s: [%d,%d) and [%d,%d)",
					pid, spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
	return nil
}

func newTestSchedule(t *testing.T) *Schedule {
	t.Helper()
	s := NewSchedule()
	for _, p := range []*Port{
		testPort("q0-drive-port", PortDrive, 0),
		testPort("q1-drive-port", PortDrive, 1),
		testPort("q0q1-coupler-port", PortCoupler, 0, 1),
	} {
		if err := s.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []*Frame{
		NewFrame("q0-drive-frame", 5.1e9),
		NewFrame("q1-drive-frame", 5.3e9),
		NewFrame("coupler-frame", 0.2e9),
	} {
		if err := s.AddFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestPortValidate(t *testing.T) {
	good := testPort("p", PortDrive, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Port{
		"empty id":    {Kind: PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1},
		"no sites":    {ID: "p", SampleRateHz: 1e9, MaxAmplitude: 1},
		"bad rate":    {ID: "p", Sites: []int{0}, MaxAmplitude: 1},
		"bad amp":     {ID: "p", Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1.5},
		"neg gran":    {ID: "p", Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1, Granularity: -1},
		"max < min":   {ID: "p", Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1, MinSamples: 10, MaxSamples: 5},
		"zero maxamp": {ID: "p", Sites: []int{0}, SampleRateHz: 1e9},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestPortCheckWaveformLen(t *testing.T) {
	p := &Port{ID: "p", Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1,
		Granularity: 8, MinSamples: 16, MaxSamples: 64}
	if err := p.CheckWaveformLen(32); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 33, 128} {
		if err := p.CheckWaveformLen(n); err == nil {
			t.Errorf("length %d should be rejected", n)
		}
	}
}

func TestFramePhaseWrap(t *testing.T) {
	f := NewFrame("f", 5e9)
	f.Apply(ShiftPhase, 0, 3*math.Pi)
	if !(math.Abs(f.PhaseRad-math.Pi) <= 1e-12) && !(math.Abs(f.PhaseRad+math.Pi) <= 1e-12) {
		t.Fatalf("phase %g not wrapped to ±π", f.PhaseRad)
	}
	f.Apply(SetPhase, 0, 0.5)
	if f.PhaseRad != 0.5 {
		t.Fatal("SetPhase failed")
	}
}

func TestFrameShiftComposition(t *testing.T) {
	// shift(a) then shift(b) == shift(a+b) modulo 2π
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Physical phases are bounded; floating-point wrap of 1e308-scale
		// inputs is inherently imprecise, so restrict the domain.
		a = math.Mod(a, 8*math.Pi)
		b = math.Mod(b, 8*math.Pi)
		f1 := NewFrame("f", 0)
		f1.Apply(ShiftPhase, 0, a)
		f1.Apply(ShiftPhase, 0, b)
		f2 := NewFrame("f", 0)
		f2.Apply(ShiftPhase, 0, a+b)
		d := math.Mod(f1.PhaseRad-f2.PhaseRad, 2*math.Pi)
		if d > math.Pi {
			d -= 2 * math.Pi
		}
		if d < -math.Pi {
			d += 2 * math.Pi
		}
		return math.Abs(d) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFrameSetOverridesShift(t *testing.T) {
	f := NewFrame("f", 5e9)
	f.Apply(ShiftPhase, 0, 1.0)
	f.Apply(SetPhase, 0, 0.25)
	if f.PhaseRad != 0.25 {
		t.Fatal("SetPhase did not override accumulated shifts")
	}
	f.Apply(ShiftFrequency, 1e6, 0)
	f.Apply(SetFrequency, 4.9e9, 0)
	if f.FrequencyHz != 4.9e9 {
		t.Fatal("SetFrequency did not override shift")
	}
}

func TestScheduleAppendValidation(t *testing.T) {
	s := newTestSchedule(t)
	w := wf(t, "w", 32)
	bad := []Instruction{
		&Play{Port: "nope", Frame: "q0-drive-frame", Waveform: w},
		&Play{Port: "q0-drive-port", Frame: "nope", Waveform: w},
		&Play{Port: "q0-drive-port", Frame: "q0-drive-frame"},
		&Delay{Port: "nope", Samples: 10},
		&Delay{Port: "q0-drive-port", Samples: -1},
		&FrameUpdate{Port: "nope", Frame: "q0-drive-frame", Kind: ShiftPhase},
		&FrameUpdate{Port: "q0-drive-port", Frame: "nope", Kind: SetFrequency},
		&FrameUpdate{Port: "q0-drive-port", Frame: "q0-drive-frame", Kind: FrameChange + 1},
		&Barrier{Ports: []string{"nope"}},
		&Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", DurationSamples: 0},
		&Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", DurationSamples: 10, Bit: -1},
	}
	for i, in := range bad {
		if err := s.Append(in); err == nil {
			t.Errorf("bad instruction %d (%T) accepted", i, in)
		}
	}
	if s.Len() != 0 {
		t.Fatal("failed appends must not modify the schedule")
	}
}

func TestScheduleAmplitudeLimit(t *testing.T) {
	s := NewSchedule()
	p := testPort("p", PortDrive, 0)
	p.MaxAmplitude = 0.3
	if err := s.AddPort(p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFrame(NewFrame("f", 5e9)); err != nil {
		t.Fatal(err)
	}
	w, _ := waveform.Constant{Amplitude: 0.5}.Materialize("w", 8)
	if err := s.Append(&Play{Port: "p", Frame: "f", Waveform: w}); err == nil {
		t.Fatal("over-amplitude play accepted")
	}
}

func TestScheduleDuplicates(t *testing.T) {
	s := newTestSchedule(t)
	if err := s.AddPort(testPort("q0-drive-port", PortDrive, 0)); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if err := s.AddFrame(NewFrame("q0-drive-frame", 1)); err == nil {
		t.Fatal("duplicate frame accepted")
	}
	if err := s.AddFrame(NewFrame("", 1)); err == nil {
		t.Fatal("empty frame ID accepted")
	}
}

func TestResolveSequentialSamePort(t *testing.T) {
	s := newTestSchedule(t)
	w := wf(t, "w", 16)
	for i := 0; i < 3; i++ {
		if err := s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w}); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	starts := []int64{}
	for _, ti := range sp.Timed {
		starts = append(starts, ti.Start)
	}
	want := []int64{0, 16, 32}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
	if sp.TotalDuration() != 48 {
		t.Fatalf("duration = %d, want 48", sp.TotalDuration())
	}
	if err := checkNoOverlap(sp); err != nil {
		t.Fatal(err)
	}
}

func TestResolveParallelPorts(t *testing.T) {
	s := newTestSchedule(t)
	w := wf(t, "w", 16)
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w})
	_ = s.Append(&Play{Port: "q1-drive-port", Frame: "q1-drive-frame", Waveform: w})
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Different ports start simultaneously.
	if sp.Timed[0].Start != 0 || sp.Timed[1].Start != 0 {
		t.Fatal("independent ports should start in parallel")
	}
	if sp.TotalDuration() != 16 {
		t.Fatalf("duration = %d, want 16", sp.TotalDuration())
	}
}

func TestResolveBarrier(t *testing.T) {
	s := newTestSchedule(t)
	w16 := wf(t, "w16", 16)
	w32 := wf(t, "w32", 32)
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w32})
	_ = s.Append(&Play{Port: "q1-drive-port", Frame: "q1-drive-frame", Waveform: w16})
	_ = s.Append(&Barrier{}) // all ports
	_ = s.Append(&Play{Port: "q1-drive-port", Frame: "q1-drive-frame", Waveform: w16})
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// The post-barrier play on q1 must start at 32 (after q0's longer pulse).
	last := sp.Timed[len(sp.Timed)-1]
	if _, ok := last.Instr.(*Play); !ok || last.Start != 32 {
		t.Fatalf("post-barrier play starts at %d, want 32", last.Start)
	}
}

func TestResolveScopedBarrier(t *testing.T) {
	s := newTestSchedule(t)
	w16 := wf(t, "w16", 16)
	w32 := wf(t, "w32", 32)
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w32})
	_ = s.Append(&Play{Port: "q1-drive-port", Frame: "q1-drive-frame", Waveform: w16})
	// Barrier only q1 and coupler; q0 unaffected.
	_ = s.Append(&Barrier{Ports: []string{"q1-drive-port", "q0q1-coupler-port"}})
	_ = s.Append(&Play{Port: "q0q1-coupler-port", Frame: "coupler-frame", Waveform: w16})
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	last := sp.Timed[len(sp.Timed)-1]
	if last.Start != 16 {
		t.Fatalf("coupler pulse starts at %d, want 16 (scoped barrier)", last.Start)
	}
}

func TestResolveZeroDurationOps(t *testing.T) {
	s := newTestSchedule(t)
	w := wf(t, "w", 16)
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w})
	_ = s.Append(&FrameUpdate{Port: "q0-drive-port", Frame: "q0-drive-frame", Kind: ShiftPhase, Phase: 0.5})
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w})
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.TotalDuration() != 32 {
		t.Fatalf("duration = %d, want 32 (frame ops are free)", sp.TotalDuration())
	}
}

func TestResolveGranularityEnforced(t *testing.T) {
	s := NewSchedule()
	p := testPort("p", PortDrive, 0)
	p.Granularity = 8
	_ = s.AddPort(p)
	_ = s.AddFrame(NewFrame("f", 5e9))
	w := wf(t, "w", 12) // not a multiple of 8
	if err := s.Append(&Play{Port: "p", Frame: "f", Waveform: w}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(); err == nil {
		t.Fatal("granularity violation not caught at resolve time")
	}
}

func TestDelayAndCaptureTiming(t *testing.T) {
	s := newTestSchedule(t)
	w := wf(t, "w", 16)
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w})
	_ = s.Append(&Delay{Port: "q0-drive-port", Samples: 10})
	_ = s.Append(&Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 100})
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sp.TotalDuration() != 126 {
		t.Fatalf("duration = %d, want 126", sp.TotalDuration())
	}
	if sp.Timed[2].Start != 26 {
		t.Fatalf("capture starts at %d, want 26", sp.Timed[2].Start)
	}
}

func TestTotalDurationSeconds(t *testing.T) {
	s := newTestSchedule(t)
	w := wf(t, "w", 100)
	_ = s.Append(&Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w})
	sp, _ := s.Resolve()
	want := 100e-9 // 100 samples at 1 GS/s
	if !(math.Abs(sp.TotalDurationSeconds()-want) <= 1e-15) {
		t.Fatalf("seconds = %g, want %g", sp.TotalDurationSeconds(), want)
	}
}

func TestQuickRandomProgramsNoOverlap(t *testing.T) {
	// Property: any random valid program resolves with no port overlap and
	// monotone start times.
	s := newTestSchedule(t)
	w := wf(t, "w", 16)
	play := &Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w}
	overlapping := &ScheduledProgram{Schedule: s, Timed: []TimedInstruction{{0, play}, {8, play}}}
	if checkNoOverlap(overlapping) == nil {
		t.Fatal("checkNoOverlap passed two plays 8 samples apart on one port")
	}
	rng := rand.New(rand.NewSource(99))
	ports := []string{"q0-drive-port", "q1-drive-port", "q0q1-coupler-port"}
	frames := []string{"q0-drive-frame", "q1-drive-frame", "coupler-frame"}
	for trial := 0; trial < 50; trial++ {
		s := newTestSchedule(t)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			k := rng.Intn(4)
			pi := rng.Intn(3)
			switch k {
			case 0:
				w := wf(t, "w", 8+8*rng.Intn(8))
				_ = s.Append(&Play{Port: ports[pi], Frame: frames[pi], Waveform: w})
			case 1:
				_ = s.Append(&Delay{Port: ports[pi], Samples: int64(rng.Intn(50))})
			case 2:
				_ = s.Append(&FrameUpdate{Port: ports[pi], Frame: frames[pi], Kind: ShiftPhase, Phase: rng.Float64()})
			case 3:
				_ = s.Append(&Barrier{})
			}
		}
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkNoOverlap(sp); err != nil {
			t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, s)
		}
		for i := 1; i < len(sp.Timed); i++ {
			if sp.Timed[i].Start < sp.Timed[i-1].Start {
				t.Fatalf("trial %d: start times not sorted", trial)
			}
		}
		// Makespan equals max port end.
		var mx int64
		for _, e := range sp.PortEnd {
			if e > mx {
				mx = e
			}
		}
		if sp.TotalDuration() != mx {
			t.Fatalf("trial %d: TotalDuration mismatch", trial)
		}
	}
}

func TestInstructionStrings(t *testing.T) {
	w := wf(t, "wave", 8)
	instrs := []Instruction{
		&Play{Port: "p", Frame: "f", Waveform: w},
		&Delay{Port: "p", Samples: 4},
		&FrameUpdate{Port: "p", Frame: "f", Kind: ShiftPhase, Phase: 0.1},
		&FrameUpdate{Port: "p", Frame: "f", Kind: SetPhase, Phase: 0.2},
		&FrameUpdate{Port: "p", Frame: "f", Kind: ShiftFrequency, Hz: 1e6},
		&FrameUpdate{Port: "p", Frame: "f", Kind: SetFrequency, Hz: 5e9},
		&FrameUpdate{Port: "p", Frame: "f", Kind: FrameChange, Hz: 5e9, Phase: 0.3},
		&Barrier{},
		&Barrier{Ports: []string{"p"}},
		&Capture{Port: "p", Frame: "f", Bit: 1, DurationSamples: 64},
	}
	for _, in := range instrs {
		if in.String() == "" {
			t.Errorf("%T has empty String()", in)
		}
	}
	if (&Barrier{}).PortID() != "" {
		t.Fatal("barrier PortID must be empty")
	}
}

func TestPortKindString(t *testing.T) {
	kinds := []PortKind{PortDrive, PortCoupler, PortReadout, PortAcquire, PortFlux, PortGlobal, PortKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty String for kind %d", int(k))
		}
	}
}

// TestFrameUpdateStrings: each kind prints under its dialect mnemonic with
// the value it reads, and the mnemonic names the kind back.
func TestFrameUpdateStrings(t *testing.T) {
	for _, c := range []struct {
		in   FrameUpdate
		want string
	}{
		{FrameUpdate{Port: "p", Frame: "f", Kind: ShiftPhase, Hz: 7, Phase: 0.1}, "shift_phase 0.1 on p/f"},
		{FrameUpdate{Port: "p", Frame: "f", Kind: SetPhase, Hz: 7, Phase: 0.2}, "set_phase 0.2 on p/f"},
		{FrameUpdate{Port: "p", Frame: "f", Kind: ShiftFrequency, Hz: 1e6, Phase: 7}, "shift_frequency 1e+06 on p/f"},
		{FrameUpdate{Port: "p", Frame: "f", Kind: SetFrequency, Hz: 5e9, Phase: 7}, "set_frequency 5e+09 on p/f"},
		{FrameUpdate{Port: "p", Frame: "f", Kind: FrameChange, Hz: 5e9, Phase: 0.3}, "frame_change f=5e+09 phi=0.3 on p/f"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v: String() = %q, want %q", c.in.Kind, got, c.want)
		}
		if k, ok := FrameKindNamed(c.in.Kind.String()); !ok || k != c.in.Kind {
			t.Errorf("FrameKindNamed(%q) = %v, %v", c.in.Kind, k, ok)
		}
	}
	if _, ok := FrameKindNamed("frame"); ok || (FrameChange + 1).Known() {
		t.Fatal("a sixth frame kind is known")
	}
}
