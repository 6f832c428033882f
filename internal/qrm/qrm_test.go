package qrm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/testutil"
)

// slowDevice is a scriptable mock device that records execution order. The
// embedded nil Device stands for the queries the scheduler never makes of it.
type slowDevice struct {
	qdmi.Device
	name    string
	mu      sync.Mutex
	order   []string
	nextJob int
	failOn  string
}

func (d *slowDevice) Name() string { return d.name }

func (d *slowDevice) SubmitJob(payload []byte, format qdmi.ProgramFormat, shots int) (qdmi.Job, error) {
	d.mu.Lock()
	d.nextJob++
	id := fmt.Sprintf("%s-%d", d.name, d.nextJob)
	d.order = append(d.order, string(payload))
	fail := d.failOn != "" && string(payload) == d.failOn
	d.mu.Unlock()
	j := qdmi.NewAsyncJob(id)
	go func() {
		if !j.Start() {
			return
		}
		if fail {
			j.Fail(errors.New("scripted failure"))
			return
		}
		j.Finish(&qdmi.Result{Counts: map[uint64]int{0: shots}, Shots: shots})
	}()
	return j, nil
}

func (d *slowDevice) executionOrder() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.order...)
}

func rig(t *testing.T) (*Scheduler, *slowDevice) {
	t.Helper()
	testutil.AssertNoLeaks(t)
	drv := qdmi.NewDriver()
	dev := &slowDevice{name: "qpu"}
	if err := drv.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	return New(drv.OpenSession()), dev
}

func TestSubmitAndWait(t *testing.T) {
	s, _ := rig(t)
	defer s.Close()
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
	if !tk.Done() {
		t.Fatal("ticket not done after Wait")
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := rig(t)
	defer s.Close()
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
	s, dev := rig(t)
	defer s.Close()
	dev.failOn = "poison"
	tk, err := s.SubmitCtx(context.Background(), Request{Device: "qpu", Payload: []byte("poison"), Format: qdmi.FormatQIRBase, Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Fatal("failure not propagated")
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestManyJobsAllComplete(t *testing.T) {
	s, dev := rig(t)
	defer s.Close()
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
	if got := len(dev.executionOrder()); got != n {
		t.Fatalf("device ran %d jobs, want %d", got, n)
	}
	if s.Stats().Completed != n {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Fill the queue while the worker is blocked on the first job, then
	// check the high-priority job ran before the low-priority ones.
	s, dev := blockingRig(t)
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
	close(dev.release)
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	order := dev.executed()
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
	s, _ := rig(t)
	defer s.Close()
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
	s, _ := rig(t)
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
	drv := qdmi.NewDriver()
	devA := &slowDevice{name: "a"}
	devB := &slowDevice{name: "b"}
	_ = drv.RegisterDevice(devA)
	_ = drv.RegisterDevice(devB)
	s := New(drv.OpenSession())
	defer s.Close()
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
	if len(devA.executionOrder()) != 5 || len(devB.executionOrder()) != 5 {
		t.Fatalf("split = %d/%d", len(devA.executionOrder()), len(devB.executionOrder()))
	}
}
