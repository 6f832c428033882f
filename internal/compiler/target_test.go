package compiler

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// queryLog forwards to a real device and records every QDMI call the
// compiler makes through it, by name and argument.
type queryLog struct {
	qdmi.Device
	calls map[string]int
	total int
}

func newQueryLog(dev qdmi.Device) *queryLog {
	return &queryLog{Device: dev, calls: map[string]int{}}
}

func (q *queryLog) note(format string, args ...any) {
	q.calls[fmt.Sprintf(format, args...)]++
	q.total++
}

func (q *queryLog) QueryDeviceProperty(p qdmi.DeviceProperty) (any, error) {
	q.note("device-property %d", p)
	return q.Device.QueryDeviceProperty(p)
}

func (q *queryLog) QuerySiteProperty(site int, p qdmi.SiteProperty) (any, error) {
	q.note("site-property")
	return q.Device.QuerySiteProperty(site, p)
}

func (q *queryLog) QueryOperationProperty(op string, sites []int, p qdmi.OperationProperty) (any, error) {
	q.note("operation-property")
	return q.Device.QueryOperationProperty(op, sites, p)
}

func (q *queryLog) QueryPortProperty(port string, p qdmi.PortProperty) (any, error) {
	q.note("port-property")
	return q.Device.QueryPortProperty(port, p)
}

func (q *queryLog) DefaultPulse(op string, sites []int) (*qdmi.PulseImpl, error) {
	q.note("pulse %s%v", op, sites)
	return q.Device.DefaultPulse(op, sites)
}

func (q *queryLog) Ports() []*pulse.Port {
	q.note("ports")
	return q.Device.Ports()
}

func (q *queryLog) Operations() []string {
	q.note("operations")
	return q.Device.Operations()
}

// TestCompileReadsTheDeviceOnce: a compile asks the device each question
// once — epoch, ports, the three waveform constraints, then one DefaultPulse
// per (operation, site tuple) the kernel needs — however many gates ask, and
// with no per-play port query: a port's limits come with the port.
func TestCompileReadsTheDeviceOnce(t *testing.T) {
	k := qpi.NewCircuit("seven", 2, 2).H(0).RX(1, 0.4).CX(0, 1).RY(0, 1.1).X(1).Measure(0, 0).Measure(1, 1)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	log := newQueryLog(scDevice(t))
	if _, err := Compile(k, log); err != nil {
		t.Fatal(err)
	}
	if log.total > 10 {
		t.Fatalf("compile made %d QDMI calls, want ≤ 10: %v", log.total, log.calls)
	}
	for call, n := range log.calls {
		if n > 1 {
			t.Errorf("%q asked %d times", call, n)
		}
	}
	if log.calls["port-property"] != 0 {
		t.Errorf("%d per-play port queries; limits come with the ports", log.calls["port-property"])
	}
}

// TestCompileQueriesDoNotGrowWithKernelLength: forty gates on two sites ask
// the device what four gates on the same two sites ask.
func TestCompileQueriesDoNotGrowWithKernelLength(t *testing.T) {
	kernel := func(reps int) *qpi.Circuit {
		k := qpi.NewCircuit("len", 2, 2)
		for i := 0; i < reps; i++ {
			k.H(0).RX(1, 0.3+float64(i)).CX(0, 1).RY(0, -0.2*float64(i+1))
		}
		k.Measure(0, 0).Measure(1, 1)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		return k
	}
	count := func(k *qpi.Circuit) *queryLog {
		log := newQueryLog(scDevice(t))
		if _, err := Compile(k, log); err != nil {
			t.Fatal(err)
		}
		return log
	}
	short, long := count(kernel(1)), count(kernel(10))
	if short.total != long.total {
		t.Fatalf("4 gates made %d QDMI calls, 40 gates %d:\n%v\n%v", short.total, long.total, short.calls, long.calls)
	}
	for call, n := range long.calls {
		if n > 1 || (strings.HasPrefix(call, "port-property") && n > 0) {
			t.Errorf("%q asked %d times", call, n)
		}
	}
}

// TestDriveEnvelopeMustBeOnePlay: rotations scale the site's x envelope, so
// an x implementation carrying anything besides its one drive play — here a
// phase step the scaled pulse would silently drop — is refused by name on
// both lowering paths, while cz, whose steps are walked one by one, honours
// a multi-step override on both.
func TestDriveEnvelopeMustBeOnePlay(t *testing.T) {
	d := idealDevice(t)
	xImpl, err := d.DefaultPulse("x", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	phased := &qdmi.PulseImpl{Operation: "x", Steps: append([]qdmi.PulseStep{
		{Kind: "shift_phase", PortRole: "drive0", PhaseRad: 0.5}}, xImpl.Steps...)}
	if err := d.SetPulseImpl("x", []int{0}, phased); err != nil {
		t.Fatal(err)
	}
	czImpl, err := d.DefaultPulse("cz", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// barrier, play, play, barrier: the coupler pulse twice over.
	twice := &qdmi.PulseImpl{Operation: "cz",
		Steps: []qdmi.PulseStep{czImpl.Steps[0], czImpl.Steps[1], czImpl.Steps[1], czImpl.Steps[2]}}
	if err := d.SetPulseImpl("cz", []int{0, 1}, twice); err != nil {
		t.Fatal(err)
	}
	link := func(body ...qir.Call) (*pulse.Schedule, error) {
		return d.BuildScheduleForPayload(&qir.Module{ID: "m", Profile: qir.ProfileBase, EntryName: "m",
			NumQubits: 2, NumResults: 2, Body: body})
	}
	q := func(i int64) qir.Arg { return qir.QubitArg(i) }

	x := qpi.NewCircuit("x", 2, 2).X(0).Measure(0, 0)
	if err := x.End(); err != nil {
		t.Fatal(err)
	}
	_, compileErr := Compile(x, d)
	_, linkErr := link(qir.Call{Callee: qir.GateIntrinsics["x"], Args: []qir.Arg{q(0)}})
	for path, err := range map[string]error{"compile": compileErr, "link": linkErr} {
		if !errors.Is(err, qdmi.ErrNotSupported) || !strings.Contains(err.Error(), "x on site 0") {
			t.Errorf("%s with a two-step x: %v; want ErrNotSupported naming x on site 0", path, err)
		}
	}
	// Site 1 kept the device's own x.
	if _, err := link(qir.Call{Callee: qir.GateIntrinsics["x"], Args: []qir.Arg{q(1)}}); err != nil {
		t.Errorf("x on the untouched site: %v", err)
	}

	cz := qpi.NewCircuit("cz", 2, 2).CZ(0, 1).Measure(0, 0).Measure(1, 1)
	if err := cz.End(); err != nil {
		t.Fatal(err)
	}
	res, err := Compile(cz, d)
	if err != nil {
		t.Fatal(err)
	}
	if n := countPlays(res.QIR); n != 2 {
		t.Errorf("compiled cz plays %d pulses, want the override's 2", n)
	}
	sched, err := link(qir.Call{Callee: qir.GateIntrinsics["cz"], Args: []qir.Arg{q(0), q(1)}})
	if err != nil {
		t.Fatal(err)
	}
	plays := 0
	for _, in := range sched.Instructions() {
		if _, ok := in.(*pulse.Play); ok {
			plays++
		}
	}
	if plays != 2 {
		t.Errorf("link-time cz plays %d pulses, want the override's 2", plays)
	}
}
