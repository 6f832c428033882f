package qrm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/testutil"
)

// device returns a fake device called name whose jobs run on goroutines of
// their own, as an asynchronous device runtime's do: the worker waits on
// them and, for a cancelled ticket, aborts them through
// qdmi.RunningCanceller.
func device(name string) *qdmitest.Device {
	d := qdmitest.New(name, 2)
	d.OffThread = true
	return d
}

// plain hides every optional capability of d: it takes text through
// SubmitJob only and returns discriminated counts.
func plain(d qdmi.Device) qdmi.Device { return struct{ qdmi.Device }{d} }

// rig registers devs and builds a scheduler over them with the leak check
// on; cleanup closes it.
func rig(t *testing.T, devs ...qdmi.Device) *Scheduler {
	t.Helper()
	testutil.AssertNoLeaks(t)
	drv := qdmi.NewDriver()
	for _, d := range devs {
		if err := drv.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	s := New(drv.OpenSession())
	t.Cleanup(s.Close)
	return s
}

// hold makes every job of d wait, once running, until the returned channel
// closes; cleanup closes it, before the scheduler closes, if the test has
// not.
func hold(t *testing.T, d *qdmitest.Device) chan struct{} {
	release := make(chan struct{})
	d.SetHold(func(qdmitest.Submission) <-chan struct{} { return release })
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return release
}

// ids lists the payloads of the jobs d accepted, in submit order.
func ids(d *qdmitest.Device) []string {
	var out []string
	for _, sub := range d.Submissions() {
		out = append(out, sub.ID)
	}
	return out
}

func TestSubmitAndWait(t *testing.T) {
	s := rig(t, device("qpu"))
	tk, err := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("job"), Format: qdmi.FormatQIRBase, Shots: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 10 {
		t.Fatalf("shots = %d", res.Shots)
	}
	if !tk.Status().Terminal() {
		t.Fatal("ticket not done after Wait")
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := rig(t, device("qpu"))
	if _, err := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("x"), Shots: 0}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("zero shots: err = %v, want ErrInvalidArgument", err)
	}
	if _, err := s.SubmitCtx(context.Background(), Request{Device: "qpu", Shots: 5}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("empty payload: err = %v, want ErrInvalidArgument", err)
	}
	if _, err := s.SubmitCtx(context.Background(), Request{Device: "ghost", Payload: []byte("x"), Shots: 5}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestFailurePropagation(t *testing.T) {
	dev := device("qpu")
	dev.FailOn = "poison"
	s := rig(t, dev)
	tk, err := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("poison"), Format: qdmi.FormatQIRBase, Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, qdmitest.ErrScripted) {
		t.Fatalf("err = %v, want the device's scripted failure", err)
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestManyJobsAllComplete(t *testing.T) {
	dev := device("qpu")
	s := rig(t, dev)
	const n = 50
	tickets := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		tk, err := s.SubmitCtx(context.Background(), Request{Device: "qpu",
			Payload: []byte(fmt.Sprintf("job-%02d", i)), Format: qdmi.FormatQIRBase, Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := len(ids(dev)); got != n {
		t.Fatalf("device ran %d jobs, want %d", got, n)
	}
	if s.Stats().Completed != n {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Fill the queue while the worker is blocked on the first job, then
	// check the high-priority job ran before the low-priority ones.
	s, dev, release := blockingRig(t)
	// Prime with one job to occupy the worker: the device holds it until
	// everything else is queued.
	first, _ := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("first"), Format: qdmi.FormatQIRBase, Shots: 1})
	waitRunning(t, first)
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tk, _ := s.SubmitCtx(context.Background(), Request{Device: "qpu",
			Payload: []byte(fmt.Sprintf("low-%d", i)), Format: qdmi.FormatQIRBase, Shots: 1, Priority: 0})
		tickets = append(tickets, tk)
	}
	hi, _ := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("high"), Format: qdmi.FormatQIRBase, Shots: 1, Priority: 10})
	tickets = append(tickets, hi, first)
	close(release)
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	order := ids(dev)
	hiIdx, lowIdx := -1, -1
	for i, p := range order {
		if p == "high" && hiIdx < 0 {
			hiIdx = i
		}
		if p == "low-4" {
			lowIdx = i
		}
	}
	// "high" was submitted after all "low" jobs but must not run last.
	if hiIdx < 0 || lowIdx < 0 || hiIdx > lowIdx {
		t.Fatalf("priority not respected: order = %v", order)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	s := rig(t, device("qpu"))
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tk, err := s.SubmitCtx(context.Background(), Request{Device: "qpu",
					Payload: []byte(fmt.Sprintf("g%d-%d", g, i)), Format: qdmi.FormatQIRBase, Shots: 1})
				if err != nil {
					failures.Add(1)
					return
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d concurrent failures", failures.Load())
	}
	if s.Stats().Completed != 80 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := rig(t, device("qpu"))
	tk, _ := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("j"), Format: qdmi.FormatQIRBase, Shots: 1})
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("j2"), Format: qdmi.FormatQIRBase, Shots: 1}); err == nil {
		t.Fatal("submit after close accepted")
	}
	s.Close() // double close is safe
}

func TestTwoDevicesRunIndependently(t *testing.T) {
	devA, devB := device("a"), device("b")
	s := rig(t, devA, devB)
	var tickets []*Ticket
	for i := 0; i < 10; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		tk, err := s.SubmitCtx(context.Background(), Request{Device: name, Payload: []byte(fmt.Sprintf("j%d", i)),
			Format: qdmi.FormatQIRBase, Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids(devA)) != 5 || len(ids(devB)) != 5 {
		t.Fatalf("split = %d/%d", len(ids(devA)), len(ids(devB)))
	}
}
