package devices

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/waveform"
)

// run executes a QIR module on a device and returns counts.
func run(t *testing.T, d *SimDevice, m *qir.Module, shots int) *qdmi.Result {
	t.Helper()
	format := qdmi.FormatQIRBase
	if m.UsesPulse() {
		format = qdmi.FormatQIRPulse
	}
	job, err := d.SubmitJob(m.Emit(), format, shots)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		res, rerr := job.Result()
		t.Fatalf("job %s: status %v, result %v err %v", job.ID(), st, res, rerr)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// gateModule builds a gate-level QIR module.
func gateModule(name string, qubits, results int, body []qir.Call) *qir.Module {
	return &qir.Module{
		ID: name, Profile: qir.ProfileBase, EntryName: name,
		NumQubits: qubits, NumResults: results, Body: body,
	}
}

func mz(q, r int64) qir.Call {
	return qir.Call{Callee: qir.IntrMz, Args: []qir.Arg{qir.QubitArg(q), qir.ResultArg(r)}}
}

func g1(callee string, q int64) qir.Call {
	return qir.Call{Callee: callee, Args: []qir.Arg{qir.QubitArg(q)}}
}

func newSC(t *testing.T) *SimDevice {
	t.Helper()
	d, err := Superconducting("sc-test", 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPresetsConstruct(t *testing.T) {
	if _, err := Superconducting("sc", 2, 1); err != nil {
		t.Errorf("superconducting: %v", err)
	}
	if _, err := TrappedIon("ion", 3, 1); err != nil {
		t.Errorf("trapped-ion: %v", err)
	}
	if _, err := NeutralAtom("atom", 3, 1); err != nil {
		t.Errorf("neutral-atom: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := Config{Name: "x", SampleRateHz: 1e9, DriveRabiHz: 1e3, GateSamples: 8,
		Sites: []SiteConfig{{Dim: 2, FreqHz: 5e9}}}
	// 1 kHz Rabi over 8 ns cannot reach π.
	if _, err := New(bad); err == nil {
		t.Fatal("unreachable π pulse accepted")
	}
	badDim := Config{Name: "x", SampleRateHz: 1e9, DriveRabiHz: 40e6, GateSamples: 32,
		Sites: []SiteConfig{{Dim: 1, FreqHz: 5e9}}}
	if _, err := New(badDim); err == nil {
		t.Fatal("dim 1 site accepted")
	}
}

func TestXGateCounts(t *testing.T) {
	d := newSC(t)
	m := gateModule("xtest", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	res := run(t, d, m, 2000)
	p1 := float64(res.Counts[1]) / float64(res.Shots)
	// Limited by readout fidelity (0.985) and slight decoherence.
	if p1 < 0.96 {
		t.Fatalf("P(1) after X = %g, want > 0.96 (counts %v)", p1, res.Counts)
	}
}

func TestHHIsIdentity(t *testing.T) {
	d := newSC(t)
	m := gateModule("hh", 1, 1, []qir.Call{g1(qir.GateIntrinsics["h"], 0), g1(qir.GateIntrinsics["h"], 0), mz(0, 0)})
	res := run(t, d, m, 2000)
	p0 := float64(res.Counts[0]) / float64(res.Shots)
	if p0 < 0.95 {
		t.Fatalf("P(0) after H·H = %g, want > 0.95", p0)
	}
}

func TestHGivesEqualSuperposition(t *testing.T) {
	d := newSC(t)
	m := gateModule("h", 1, 1, []qir.Call{g1(qir.GateIntrinsics["h"], 0), mz(0, 0)})
	res := run(t, d, m, 8000)
	p1 := float64(res.Counts[1]) / float64(res.Shots)
	if math.Abs(p1-0.5) > 0.03 {
		t.Fatalf("P(1) after H = %g, want ~0.5", p1)
	}
}

func TestVirtualZInterference(t *testing.T) {
	// H · RZ(θ) · H gives P(1) = sin²(θ/2); probes the virtual-Z sign
	// convention through interference.
	d := newSC(t)
	for _, tc := range []struct {
		theta float64
		want  float64
	}{
		{0, 0}, {math.Pi, 1}, {math.Pi / 2, 0.5},
	} {
		m := gateModule("hzh", 1, 1, []qir.Call{
			g1(qir.GateIntrinsics["h"], 0),
			{Callee: qir.GateIntrinsics["rz"], Args: []qir.Arg{qir.F64Arg(tc.theta), qir.QubitArg(0)}},
			g1(qir.GateIntrinsics["h"], 0),
			mz(0, 0),
		})
		res := run(t, d, m, 4000)
		p1 := float64(res.Counts[1]) / float64(res.Shots)
		if math.Abs(p1-tc.want) > 0.05 {
			t.Fatalf("theta=%g: P(1) = %g, want %g", tc.theta, p1, tc.want)
		}
	}
}

func TestSGateIsSqrtZ(t *testing.T) {
	// H·S·S·H = H·Z·H = X → P(1)≈1.
	d := newSC(t)
	m := gateModule("hssh", 1, 1, []qir.Call{
		g1(qir.GateIntrinsics["h"], 0), g1(qir.GateIntrinsics["s"], 0), g1(qir.GateIntrinsics["s"], 0), g1(qir.GateIntrinsics["h"], 0), mz(0, 0),
	})
	res := run(t, d, m, 2000)
	p1 := float64(res.Counts[1]) / float64(res.Shots)
	if p1 < 0.94 {
		t.Fatalf("P(1) = %g, want ~1", p1)
	}
}

func TestRXSweepMatchesTheory(t *testing.T) {
	d := newSC(t)
	for _, theta := range []float64{0.5, 1.2, math.Pi / 2, 2.5} {
		m := gateModule("rx", 1, 1, []qir.Call{
			{Callee: qir.GateIntrinsics["rx"], Args: []qir.Arg{qir.F64Arg(theta), qir.QubitArg(0)}},
			mz(0, 0),
		})
		res := run(t, d, m, 6000)
		p1 := float64(res.Counts[1]) / float64(res.Shots)
		want := math.Pow(math.Sin(theta/2), 2)
		// Readout error compresses the visibility.
		if math.Abs(p1-want) > 0.05 {
			t.Fatalf("theta=%g: P(1) = %g, want %g", theta, p1, want)
		}
	}
}

func TestNegativeRXAngle(t *testing.T) {
	d := newSC(t)
	m := gateModule("rxneg", 1, 1, []qir.Call{
		{Callee: qir.GateIntrinsics["rx"], Args: []qir.Arg{qir.F64Arg(-math.Pi / 2), qir.QubitArg(0)}},
		{Callee: qir.GateIntrinsics["rx"], Args: []qir.Arg{qir.F64Arg(math.Pi / 2), qir.QubitArg(0)}},
		mz(0, 0),
	})
	res := run(t, d, m, 2000)
	p0 := float64(res.Counts[0]) / float64(res.Shots)
	if p0 < 0.95 {
		t.Fatalf("P(0) after RX(-θ)RX(θ) = %g, want ~1", p0)
	}
}

func TestBellStateViaCX(t *testing.T) {
	d := newSC(t)
	m := gateModule("bell", 2, 2, []qir.Call{
		g1(qir.GateIntrinsics["h"], 0),
		{Callee: qir.GateIntrinsics["cx"], Args: []qir.Arg{qir.QubitArg(0), qir.QubitArg(1)}},
		mz(0, 0), mz(1, 1),
	})
	res := run(t, d, m, 8000)
	p00 := float64(res.Counts[0b00]) / float64(res.Shots)
	p11 := float64(res.Counts[0b11]) / float64(res.Shots)
	pOdd := float64(res.Counts[0b01]+res.Counts[0b10]) / float64(res.Shots)
	if math.Abs(p00-0.5) > 0.06 || math.Abs(p11-0.5) > 0.06 {
		t.Fatalf("Bell populations p00=%g p11=%g", p00, p11)
	}
	// Readout error (1.5% per qubit) plus gate error bounds the odd-parity leakage.
	if pOdd > 0.09 {
		t.Fatalf("odd parity fraction %g too high", pOdd)
	}
}

func TestCZPhaseKickback(t *testing.T) {
	// |+⟩|1⟩ -CZ→ |−⟩|1⟩; closing the Ramsey with H reads 1 on qubit 0.
	d := newSC(t)
	m := gateModule("czkick", 2, 2, []qir.Call{
		g1(qir.GateIntrinsics["h"], 0),
		g1(qir.GateIntrinsics["x"], 1),
		{Callee: qir.GateIntrinsics["cz"], Args: []qir.Arg{qir.QubitArg(0), qir.QubitArg(1)}},
		g1(qir.GateIntrinsics["h"], 0),
		mz(0, 0), mz(1, 1),
	})
	res := run(t, d, m, 4000)
	p11 := float64(res.Counts[0b11]) / float64(res.Shots)
	if p11 < 0.88 {
		t.Fatalf("P(11) = %g, want ~1 (counts %v)", p11, res.Counts)
	}
}

func TestPulseLevelPayload(t *testing.T) {
	// Hand-written pulse program: calibrated π pulse on q0 via raw play.
	d := newSC(t)
	amp := d.CalibratedPiAmplitude(0)
	w, err := d.gateEnvelope(amp)
	if err != nil {
		t.Fatal(err)
	}
	m := &qir.Module{
		ID: "rawpulse", Profile: qir.ProfilePulse, EntryName: "rawpulse",
		NumQubits: 1, NumResults: 1, NumPorts: 2,
		PortNames: []string{"q0-drive", "q0-readout"},
		Waveforms: []qir.WaveformConst{{Name: "pi_pulse", Samples: w.Samples}},
		Body: []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("pi_pulse"), qir.F64Arg(1)}},
			{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(96)}},
		},
	}
	res := run(t, d, m, 2000)
	p1 := float64(res.Counts[1]) / float64(res.Shots)
	if p1 < 0.96 {
		t.Fatalf("P(1) after raw pulse π = %g", p1)
	}
}

func TestPulsePayloadRequiresPulseFormat(t *testing.T) {
	d := newSC(t)
	m := &qir.Module{
		ID: "p", Profile: qir.ProfilePulse, EntryName: "p",
		NumPorts: 1, PortNames: []string{"q0-drive"},
		Waveforms: []qir.WaveformConst{{Name: "w", Samples: []complex128{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}}},
		Body: []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("w"), qir.F64Arg(1)}},
		},
	}
	if _, err := d.SubmitJob(m.Emit(), qdmi.FormatQIRBase, 10); err == nil {
		t.Fatal("pulse payload accepted under base format")
	}
}

func TestSubmitJobValidation(t *testing.T) {
	d := newSC(t)
	m := gateModule("v", 1, 1, []qir.Call{mz(0, 0)})
	if _, err := d.SubmitJob(m.Emit(), "mlir-pulse", 10); err == nil {
		t.Fatal("unsupported format accepted")
	}
	if _, err := d.SubmitJob(m.Emit(), qdmi.FormatQIRBase, 0); err == nil {
		t.Fatal("zero shots accepted")
	}
	if _, err := d.SubmitJob(m.Emit(), qdmi.FormatQIRBase, 1<<30); err == nil {
		t.Fatal("excess shots accepted")
	}
	if _, err := d.SubmitJob([]byte("not qir"), qdmi.FormatQIRBase, 10); err == nil {
		t.Fatal("garbage payload accepted")
	}
	bad := &qir.Module{ID: "b", Profile: qir.ProfilePulse, EntryName: "b",
		NumPorts: 1, PortNames: []string{"ghost-port"},
		Waveforms: []qir.WaveformConst{{Name: "w", Samples: []complex128{0.1}}},
		Body: []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("w"), qir.F64Arg(1)}},
		}}
	if _, err := d.SubmitJob(bad.Emit(), qdmi.FormatQIRPulse, 10); err == nil {
		t.Fatal("unknown port accepted")
	}
	bad.NumPorts, bad.PortNames = 2, []string{"q0-drive", "q0-drive"}
	if _, err := d.SubmitModule(bad, qdmi.JobOptions{Shots: 10}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("port named twice: err = %v, want ErrInvalidArgument", err)
	}
	// A refused submission draws nothing from the device's job stream: the
	// first accepted job is job 1.
	job, err := d.SubmitJob(m.Emit(), qdmi.FormatQIRBase, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := d.Name() + "-job-1"; job.ID() != want {
		t.Fatalf("first accepted job is %q, want %q", job.ID(), want)
	}
	waitResult(t, job)
}

// TestUnboundTemplateRejectedAtEveryEntry: a template's slots are part of
// the exchange text, so text can carry one to a device as well as a module
// can; a device runs neither until someone has bound it.
func TestUnboundTemplateRejectedAtEveryEntry(t *testing.T) {
	d := newSC(t)
	tpl := &qir.Module{
		ID: "tpl", Profile: qir.ProfilePulse, EntryName: "tpl",
		NumResults: 1, NumPorts: 2, PortNames: []string{"q0-drive", "q0-readout"},
		Waveforms: []qir.WaveformConst{{Name: "env", Samples: []complex128{0.1, 0.2, 0.2, 0.1, 0.1, 0.2, 0.2, 0.1}}},
		Body: []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("env"), {Kind: qir.ArgF64, Expr: &qir.ParamExpr{Param: "amp", Scale: 1}}}},
			{Callee: qir.IntrShiftPhase, Args: []qir.Arg{qir.PortArg(0), {Kind: qir.ArgF64, Expr: &qir.ParamExpr{Param: "phi", Scale: 2}}}},
			{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(96)}},
		},
	}
	if back, err := qir.ParseModule(string(tpl.Emit())); err != nil || !back.IsParametric() {
		t.Fatalf("the template's text does not carry its slots: %v", err)
	}
	opts := qdmi.JobOptions{Shots: 10}
	if _, err := d.SubmitJobOpts(tpl.Emit(), qdmi.FormatQIRPulse, opts); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("SubmitJobOpts on slot-carrying text: err = %v, want qdmi.ErrInvalidArgument", err)
	}
	if _, err := d.SubmitJob(tpl.Emit(), qdmi.FormatQIRPulse, 10); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("SubmitJob on slot-carrying text: err = %v, want qdmi.ErrInvalidArgument", err)
	}
	if _, err := d.SubmitModule(tpl, opts); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("SubmitModule on an unbound template: err = %v, want qdmi.ErrInvalidArgument", err)
	}
	bound, err := tpl.Bind(map[string]float64{"amp": 0.5, "phi": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	run(t, d, bound, 10)
}

// TestNonFiniteAngleTextFails: exchange text whose gate angle is NaN or
// infinite is malformed and fails with ErrInvalidArgument, like any program
// that does not verify — not run, with rz(NaN) a NaN frame phase that reads
// like no rotation at all.
func TestNonFiniteAngleTextFails(t *testing.T) {
	d := newSC(t)
	for _, tc := range []struct {
		callee string
		angle  float64
	}{{qir.GateIntrinsics["rz"], math.NaN()}, {qir.GateIntrinsics["rz"], math.Inf(1)}, {qir.GateIntrinsics["rx"], math.NaN()}, {qir.GateIntrinsics["ry"], math.Inf(-1)}} {
		m := gateModule("nonfinite", 1, 1, []qir.Call{
			g1(qir.GateIntrinsics["h"], 0),
			{Callee: tc.callee, Args: []qir.Arg{qir.F64Arg(tc.angle), qir.QubitArg(0)}},
			g1(qir.GateIntrinsics["h"], 0),
			mz(0, 0),
		})
		job, err := d.SubmitJobOpts(m.Emit(), qdmi.FormatQIRBase, qdmi.JobOptions{Shots: 100})
		if err == nil {
			if st := job.Wait(t.Context()); st == qdmi.JobDone {
				res, _ := job.Result()
				t.Fatalf("%s(%g) ran: counts %v", tc.callee, tc.angle, res.Counts)
			}
			_, err = job.Result()
		}
		if !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Fatalf("%s(%g): err = %v, want qdmi.ErrInvalidArgument", tc.callee, tc.angle, err)
		}
	}
}

func TestQDMIQueries(t *testing.T) {
	d := newSC(t)
	tech, err := qdmi.QueryString(d, qdmi.DevicePropTechnology)
	if err != nil || tech != "superconducting" {
		t.Fatalf("technology: %v %q", err, tech)
	}
	ps, err := qdmi.QueryPulseSupport(d)
	if err != nil || ps != qdmi.PulsePortLevel {
		t.Fatalf("pulse support: %v %v", err, ps)
	}
	if n, _ := qdmi.QueryInt(d, qdmi.DevicePropNumSites); n != 2 {
		t.Fatalf("sites = %d", n)
	}
	// Site queries.
	f, err := d.QuerySiteProperty(0, qdmi.SitePropFrequencyHz)
	if err != nil || f.(float64) != d.CalibratedFrequency(0) {
		t.Fatalf("site freq: %v %v", err, f)
	}
	conn, err := d.QuerySiteProperty(0, qdmi.SitePropConnectivity)
	if err != nil || len(conn.([]int)) != 1 || conn.([]int)[0] != 1 {
		t.Fatalf("connectivity: %v %v", err, conn)
	}
	if _, err := d.QuerySiteProperty(9, qdmi.SitePropT1Seconds); err == nil {
		t.Fatal("bad site accepted")
	}
	// Port queries.
	kind, err := d.QueryPortProperty("q0q1-coupler", qdmi.PortPropKind)
	if err != nil {
		t.Fatal(err)
	}
	if kind.(interface{ String() string }).String() != "coupler" {
		t.Fatalf("kind = %v", kind)
	}
	if _, err := d.QueryPortProperty("ghost", qdmi.PortPropKind); err == nil {
		t.Fatal("ghost port accepted")
	}
	// Operation queries.
	dur, err := d.QueryOperationProperty("rz", nil, qdmi.OpPropDurationSeconds)
	if err != nil || dur.(float64) != 0 {
		t.Fatalf("rz duration: %v %v", err, dur)
	}
	fid, err := d.QueryOperationProperty("x", []int{0}, qdmi.OpPropFidelity)
	if err != nil || fid.(float64) < 0.99 {
		t.Fatalf("freshly calibrated x fidelity: %v %v", err, fid)
	}
}

// TestOperationQueriesRefuseWhatTheDeviceLacks: an operation query answers
// only for an operation the device lists, on a site tuple it has — in
// range, as many sites as the operation acts on, a pair joined by a coupler.
// Nil sites ask for the device-wide answer.
func TestOperationQueriesRefuseWhatTheDeviceLacks(t *testing.T) {
	d := newSC(t) // sites 0 and 1, one coupler
	chain, err := Superconducting("sc-chain", 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPulseImpl("pairgate", []int{0, 1}, keptImpl()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dev   *SimDevice
		op    string
		sites []int
		p     qdmi.OperationProperty
		want  error // nil: answered
	}{
		{d, "bogus", []int{0}, qdmi.OpPropDurationSeconds, qdmi.ErrNotSupported},
		{d, "bogus", nil, qdmi.OpPropFidelity, qdmi.ErrNotSupported},
		{d, "bogus", nil, qdmi.OpPropArity, qdmi.ErrNotSupported},
		{d, "iswap", []int{0, 1}, qdmi.OpPropDurationSeconds, qdmi.ErrNotSupported},
		{d, "x", []int{7}, qdmi.OpPropFidelity, qdmi.ErrInvalidArgument},
		{d, "x", []int{-1}, qdmi.OpPropDurationSeconds, qdmi.ErrInvalidArgument},
		{d, "x", []int{0, 1}, qdmi.OpPropDurationSeconds, qdmi.ErrInvalidArgument},
		{d, "cz", []int{0, 5}, qdmi.OpPropDurationSeconds, qdmi.ErrInvalidArgument},
		{d, "cz", []int{0}, qdmi.OpPropDurationSeconds, qdmi.ErrInvalidArgument},
		{d, "measure", []int{0, 1}, qdmi.OpPropDurationSeconds, qdmi.ErrInvalidArgument},
		{d, "pairgate", []int{0}, qdmi.OpPropDurationSeconds, qdmi.ErrInvalidArgument},
		{chain, "cz", []int{0, 2}, qdmi.OpPropDurationSeconds, qdmi.ErrNotSupported},
		{chain, "cx", []int{2, 0}, qdmi.OpPropFidelity, qdmi.ErrNotSupported},
		{d, "x", nil, qdmi.OpPropDurationSeconds, nil},
		{d, "x", []int{1}, qdmi.OpPropFidelity, nil},
		{d, "cz", []int{1, 0}, qdmi.OpPropDurationSeconds, nil},
		{d, "measure", []int{1}, qdmi.OpPropDurationSeconds, nil},
		{d, "pairgate", []int{0, 1}, qdmi.OpPropHasPulseImpl, nil},
		{chain, "cz", []int{1, 2}, qdmi.OpPropDurationSeconds, nil},
	} {
		v, err := tc.dev.QueryOperationProperty(tc.op, tc.sites, tc.p)
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s %s%v property %v = %v, %v; want %v", tc.dev.Name(), tc.op, tc.sites, tc.p, v, err, tc.want)
		}
	}
	for op, want := range map[string]int{"x": 1, "cz": 2, "measure": 1, "pairgate": 2} {
		if n, err := d.QueryOperationProperty(op, nil, qdmi.OpPropArity); err != nil || n != want {
			t.Errorf("%s arity %v, %v; want %d", op, n, err, want)
		}
	}
}

// TestCheckOperationAllocatesNothing: the membership test behind every
// operation-property query answers as Operations does — gate-table rows,
// measure, installed pulses — without building that list: a query on a
// listed operation allocates nothing.
func TestCheckOperationAllocatesNothing(t *testing.T) {
	d := newSC(t)
	if err := d.SetPulseImpl("pairgate", []int{0, 1}, keptImpl()); err != nil {
		t.Fatal(err)
	}
	names := []string{"measure", "pairgate", "bogus", ""}
	for i := range waveform.Gates {
		names = append(names, waveform.Gates[i].Name)
	}
	listed := d.Operations()
	for _, op := range names {
		if got, want := d.hasOperation(op), slices.Contains(listed, op); got != want {
			t.Errorf("hasOperation(%q) = %v, Operations lists it: %v", op, got, want)
		}
	}
	for _, tc := range []struct {
		op    string
		sites []int
	}{{"x", nil}, {"x", []int{1}}, {"cz", []int{1, 0}}, {"measure", []int{0}}, {"pairgate", []int{0, 1}}} {
		if n := testing.AllocsPerRun(100, func() {
			if err := d.checkOperation(tc.op, tc.sites); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("checkOperation(%s%v) allocates %v objects, want 0", tc.op, tc.sites, n)
		}
	}
}

func TestPortInventory(t *testing.T) {
	d := newSC(t)
	ports := d.Ports()
	// 2 sites × (drive + readout) + 1 coupler = 5.
	if len(ports) != 5 {
		t.Fatalf("port count = %d, want 5", len(ports))
	}
	for _, p := range ports {
		if err := p.Validate(); err != nil {
			t.Errorf("port %s invalid: %v", p.ID, err)
		}
	}
}

func TestDefaultPulseQueries(t *testing.T) {
	d := newSC(t)
	impl, err := d.DefaultPulse("x", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := impl.Validate(); err != nil {
		t.Fatal(err)
	}
	if impl.Steps[0].Kind != "play" {
		t.Fatalf("x impl starts with %q", impl.Steps[0].Kind)
	}
	cz, err := d.DefaultPulse("cz", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cz.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DefaultPulse("cz", []int{0}); err == nil {
		t.Fatal("cz with one site accepted")
	}
	if _, err := d.DefaultPulse("frobnicate", []int{0}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := d.DefaultPulse("x", nil); err == nil {
		t.Fatal("missing sites accepted")
	}
}

func TestDriftMovesTrueParameters(t *testing.T) {
	d := newSC(t)
	f0 := d.TrueFrequency(0)
	if f0 != d.CalibratedFrequency(0) {
		t.Fatal("device should start calibrated")
	}
	d.AdvanceTime(3600) // one hour
	f1 := d.TrueFrequency(0)
	if f1 == f0 {
		t.Fatal("no frequency drift after an hour")
	}
	if math.Abs(f1-f0) > 500e3 {
		t.Fatalf("drift %g Hz implausibly large", f1-f0)
	}
	if d.Now() < 3600 {
		t.Fatalf("clock = %g", d.Now())
	}
	// Calibration table does not move by itself.
	if d.CalibratedFrequency(0) != f0 {
		t.Fatal("calibrated frequency drifted without calibration")
	}
}

func TestDriftDegradesEstimatedFidelity(t *testing.T) {
	d, err := Superconducting("sc-drift", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	fid0, _ := d.QueryOperationProperty("x", []int{0}, qdmi.OpPropFidelity)
	// Miscalibrate on purpose: pretend frequency is off by 2 MHz.
	d.SetCalibratedFrequency(0, d.TrueFrequency(0)+2e6)
	fid1, _ := d.QueryOperationProperty("x", []int{0}, qdmi.OpPropFidelity)
	if fid1.(float64) >= fid0.(float64) {
		t.Fatalf("fidelity estimate did not degrade: %v -> %v", fid0, fid1)
	}
}

func TestMiscalibrationDegradesRealCounts(t *testing.T) {
	// Detune the calibrated frequency far off and watch the π pulse fail.
	d, err := Superconducting("sc-miscal", 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	good := run(t, d, m, 2000)
	p1Good := float64(good.Counts[1]) / float64(good.Shots)

	d.SetCalibratedFrequency(0, d.TrueFrequency(0)+30e6) // 30 MHz off vs 40 MHz Rabi
	bad := run(t, d, m, 2000)
	p1Bad := float64(bad.Counts[1]) / float64(bad.Shots)
	if p1Bad >= p1Good-0.1 {
		t.Fatalf("miscalibration did not hurt: %g vs %g", p1Good, p1Bad)
	}
}

func TestCalibrationWriteback(t *testing.T) {
	d := newSC(t)
	d.SetCalibratedPiAmplitude(0, 0.77)
	if d.CalibratedPiAmplitude(0) != 0.77 {
		t.Fatal("amplitude writeback failed")
	}
	d.SetCalibratedFrequency(0, 4.95e9)
	if d.CalibratedFrequency(0) != 4.95e9 {
		t.Fatal("frequency writeback failed")
	}
}

func TestTrappedIonXGate(t *testing.T) {
	d, err := TrappedIon("ion-test", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	res := run(t, d, m, 1000)
	p1 := float64(res.Counts[1]) / float64(res.Shots)
	if p1 < 0.97 {
		t.Fatalf("ion P(1) after X = %g", p1)
	}
}

func TestNeutralAtomXGate(t *testing.T) {
	d, err := NeutralAtom("atom-test", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	res := run(t, d, m, 1000)
	p1 := float64(res.Counts[1]) / float64(res.Shots)
	if p1 < 0.93 {
		t.Fatalf("atom P(1) after X = %g", p1)
	}
}

func TestTechnologyDiversityViaQDMI(t *testing.T) {
	// The same QDMI queries work across all three technologies and reveal
	// their differences — the heterogeneity Fig. 2 illustrates.
	sc, _ := Superconducting("sc", 2, 1)
	ion, _ := TrappedIon("ion", 2, 1)
	atom, _ := NeutralAtom("atom", 2, 1)
	rates := map[string]float64{}
	for _, dev := range []*SimDevice{sc, ion, atom} {
		r, err := qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz)
		if err != nil {
			t.Fatal(err)
		}
		rates[dev.Name()] = r
		xdur, err := dev.QueryOperationProperty("x", []int{0}, qdmi.OpPropDurationSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if xdur.(float64) <= 0 {
			t.Fatalf("%s: x duration %v", dev.Name(), xdur)
		}
	}
	if rates["sc"] <= rates["atom"] || rates["atom"] <= rates["ion"] {
		t.Fatalf("expected sc > atom > ion sample rates, got %v", rates)
	}
	// Gate durations: sc ns-scale, ion µs-scale.
	scDur, _ := sc.QueryOperationProperty("x", []int{0}, qdmi.OpPropDurationSeconds)
	ionDur, _ := ion.QueryOperationProperty("x", []int{0}, qdmi.OpPropDurationSeconds)
	if scDur.(float64) >= ionDur.(float64) {
		t.Fatal("sc gates should be faster than ion gates")
	}
}

func TestSuperconductingWithCoherence(t *testing.T) {
	base, err := Superconducting("base", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := SuperconductingWithCoherence("noisy", 2, 2e-6, 1.5e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	bt1, _ := base.QuerySiteProperty(0, qdmi.SitePropT1Seconds)
	nt1, _ := noisy.QuerySiteProperty(0, qdmi.SitePropT1Seconds)
	if bt1.(float64) == nt1.(float64) || nt1.(float64) != 2e-6 {
		t.Fatalf("coherence override failed: %v vs %v", bt1, nt1)
	}
	// The override must not corrupt the base preset (deep-copy check).
	base2, _ := Superconducting("base2", 2, 3)
	b2t1, _ := base2.QuerySiteProperty(0, qdmi.SitePropT1Seconds)
	if b2t1.(float64) != bt1.(float64) {
		t.Fatal("preset mutated by coherence override")
	}
}

func TestJobsSerializePerDevice(t *testing.T) {
	// Concurrent submissions must all complete (the device serializes
	// physics internally via its own locks; jobs run on goroutines).
	d := newSC(t)
	m := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	payload := m.Emit()
	jobs := make([]qdmi.Job, 8)
	for i := range jobs {
		j, err := d.SubmitJob(payload, qdmi.FormatQIRBase, 100)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := j.Wait(context.Background()); st != qdmi.JobDone {
			t.Fatalf("job %d: %v", i, st)
		}
	}
}
