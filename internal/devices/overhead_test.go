package devices

import (
	"context"
	"errors"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
)

func TestJobOverheadCancelReleasesDevice(t *testing.T) {
	d, err := Superconducting("ovh-sc", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetJobOverhead(30 * time.Second) // long enough that only cancel ends it
	m := gateModule("ovh", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	job, err := d.SubmitJob(m.Emit(), qdmi.FormatQIRBase, 10)
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := job.(qdmi.RunningCanceller)
	if !ok {
		t.Fatal("SimDevice jobs must support CancelRunning")
	}
	// The job runs on the goroutine that waits for it: wait in one, let it
	// enter the overhead hold, then abort it from here.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waited := make(chan qdmi.JobStatus, 1)
	go func() { waited <- job.Wait(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for job.Status() == qdmi.JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := rc.CancelRunning(); err != nil {
		t.Fatal(err)
	}
	if st := <-waited; st != qdmi.JobCancelled {
		t.Fatalf("status = %v", st)
	}
	if time.Since(start) > 4*time.Second {
		t.Fatal("cancel did not interrupt the overhead hold")
	}
	if _, err := job.Result(); !errors.Is(err, qdmi.ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
}

func TestJobOverheadDelaysCompletion(t *testing.T) {
	d, err := Superconducting("ovh2-sc", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetJobOverhead(50 * time.Millisecond)
	m := gateModule("ovh2", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	start := time.Now()
	res := run(t, d, m, 50)
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("job finished in %v, before the modeled overhead", elapsed)
	}
	if res.Shots != 50 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

// TestJobWaiterCtxAbortsRun: the ctx of the Wait that runs the job is the
// job's — firing mid-hold it ends the job JobCancelled, and a later Wait
// finds it so instead of running it again.
func TestJobWaiterCtxAbortsRun(t *testing.T) {
	d, err := Superconducting("ovh3-sc", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetJobOverhead(30 * time.Second)
	m := gateModule("ovh3", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	job, err := d.SubmitJob(m.Emit(), qdmi.FormatQIRBase, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if st := job.Wait(ctx); st != qdmi.JobCancelled {
		t.Fatalf("status = %v", st)
	}
	if time.Since(start) > 4*time.Second {
		t.Fatal("the waiter's ctx did not interrupt the overhead hold")
	}
	if st := job.Wait(context.Background()); st != qdmi.JobCancelled {
		t.Fatalf("later wait = %v", st)
	}
	if _, err := job.Result(); !errors.Is(err, qdmi.ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
}
