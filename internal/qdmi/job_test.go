package qdmi

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestAsyncJobWaitContextCancel(t *testing.T) {
	j := NewAsyncJob("j")
	j.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if st := j.Wait(ctx); st != JobRunning {
		t.Fatalf("status = %v, want still-running after abandoned wait", st)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("Wait did not honor the context deadline")
	}
	// The job is untouched; a fresh wait still sees it complete.
	go j.Finish(&Result{Shots: 1})
	if st := j.Wait(context.Background()); st != JobDone {
		t.Fatalf("status = %v", st)
	}
}

func TestAsyncJobCancelRunning(t *testing.T) {
	j := NewAsyncJob("j")
	if !j.Start() {
		t.Fatal("start failed")
	}
	var rc RunningCanceller = j // capability is part of the type
	if err := rc.CancelRunning(); err != nil {
		t.Fatal(err)
	}
	if j.Status() != JobCancelled || !j.Aborted() {
		t.Fatalf("status = %v", j.Status())
	}
	// The device runtime's late Finish is dropped, not resurrected.
	j.Finish(&Result{Shots: 5})
	if j.Status() != JobCancelled {
		t.Fatalf("finish resurrected a cancelled job: %v", j.Status())
	}
	if _, err := j.Result(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	// Idempotent.
	if err := j.CancelRunning(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncJobCancelRunningAfterDone(t *testing.T) {
	j := NewAsyncJob("j")
	j.Start()
	j.Finish(&Result{Shots: 1})
	if err := j.CancelRunning(); err == nil {
		t.Fatal("cancel-running of done job accepted")
	}
	if res, err := j.Result(); err != nil || res.Shots != 1 {
		t.Fatalf("result lost: %v %v", res, err)
	}
}

func TestJobStatusTerminal(t *testing.T) {
	for st, want := range map[JobStatus]bool{
		JobQueued: false, JobRunning: false,
		JobDone: true, JobFailed: true, JobCancelled: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%v.Terminal() = %v", st, st.Terminal())
		}
	}
}

// TestRunOnWaitJob walks the state machine of a job whose first Wait runs
// it. Every row's body counts its calls, announces itself on entered and
// then does what the row says; act drives the job from the test goroutine.
func TestRunOnWaitJob(t *testing.T) {
	want := &Result{Shots: 7}
	type fixture struct {
		job     *AsyncJob
		calls   *atomic.Int32
		entered chan struct{} // one token per body invocation
		release chan struct{} // closing it lets a holding body go on
	}
	// finishOnRelease is the body of an obedient device: it holds until
	// released or told to stop, and finishes only in the first case.
	finishOnRelease := func(f *fixture) func(context.Context, *AsyncJob) {
		return func(ctx context.Context, j *AsyncJob) {
			select {
			case <-f.release:
				j.Finish(want)
			case <-ctx.Done():
			case <-j.Done():
			}
		}
	}
	waitIn := func(f *fixture, ctx context.Context) <-chan JobStatus {
		st := make(chan JobStatus, 1)
		go func() { st <- f.job.Wait(ctx) }()
		return st
	}
	for _, tc := range []struct {
		name string
		body func(*fixture) func(context.Context, *AsyncJob)
		act  func(*testing.T, *fixture)
		// after act: the terminal status and how often the body ran.
		status JobStatus
		calls  int32
	}{
		{
			name: "cancel before first wait never runs the body",
			body: finishOnRelease,
			act: func(t *testing.T, f *fixture) {
				if err := f.job.Cancel(); err != nil {
					t.Fatal(err)
				}
				if st := f.job.Wait(context.Background()); st != JobCancelled {
					t.Fatalf("wait after cancel = %v", st)
				}
			},
			status: JobCancelled, calls: 0,
		},
		{
			name: "cancel-running before first wait never runs the body",
			body: finishOnRelease,
			act: func(t *testing.T, f *fixture) {
				if err := f.job.CancelRunning(); err != nil {
					t.Fatal(err)
				}
				if st := f.job.Wait(context.Background()); st != JobCancelled {
					t.Fatalf("wait after cancel = %v", st)
				}
			},
			status: JobCancelled, calls: 0,
		},
		{
			name: "cancel-running mid-body ends the runner's wait and a late finish is dropped",
			// A device that notices the abort only after producing a result.
			body: func(f *fixture) func(context.Context, *AsyncJob) {
				return func(_ context.Context, j *AsyncJob) {
					<-j.Done()
					j.Finish(want)
				}
			},
			act: func(t *testing.T, f *fixture) {
				st := waitIn(f, context.Background())
				<-f.entered
				if got := f.job.Status(); got != JobRunning {
					t.Fatalf("status mid-body = %v", got)
				}
				if err := f.job.Cancel(); err == nil {
					t.Fatal("queued-only Cancel accepted on a running job")
				}
				if err := f.job.CancelRunning(); err != nil {
					t.Fatal(err)
				}
				if got := <-st; got != JobCancelled {
					t.Fatalf("runner's wait = %v", got)
				}
			},
			status: JobCancelled, calls: 1,
		},
		{
			name: "runner's ctx firing mid-body cancels the job",
			body: finishOnRelease,
			act: func(t *testing.T, f *fixture) {
				ctx, cancel := context.WithCancel(context.Background())
				st := waitIn(f, ctx)
				<-f.entered
				cancel()
				if got := <-st; got != JobCancelled {
					t.Fatalf("runner's wait = %v", got)
				}
			},
			status: JobCancelled, calls: 1,
		},
		{
			name: "second waiter's ctx abandons only that wait",
			body: finishOnRelease,
			act: func(t *testing.T, f *fixture) {
				runner := waitIn(f, context.Background())
				<-f.entered
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if got := f.job.Wait(ctx); got != JobRunning {
					t.Fatalf("abandoned wait = %v, want the job still running", got)
				}
				close(f.release)
				if got := <-runner; got != JobDone {
					t.Fatalf("runner's wait = %v", got)
				}
			},
			status: JobDone, calls: 1,
		},
		{
			name: "concurrent waiters run the body once and see one result",
			body: finishOnRelease,
			act: func(t *testing.T, f *fixture) {
				a, b := waitIn(f, context.Background()), waitIn(f, context.Background())
				<-f.entered
				close(f.release)
				if sa, sb := <-a, <-b; sa != JobDone || sb != JobDone {
					t.Fatalf("waits = %v, %v", sa, sb)
				}
			},
			status: JobDone, calls: 1,
		},
		{
			name: "a failing body fails the job",
			body: func(*fixture) func(context.Context, *AsyncJob) {
				return func(_ context.Context, j *AsyncJob) { j.Fail(ErrNotSupported) }
			},
			act: func(t *testing.T, f *fixture) {
				if st := f.job.Wait(context.Background()); st != JobFailed {
					t.Fatalf("wait = %v", st)
				}
			},
			status: JobFailed, calls: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fixture{calls: new(atomic.Int32), entered: make(chan struct{}, 2), release: make(chan struct{})}
			body := tc.body(f)
			f.job = NewRunOnWaitJob("j", func(ctx context.Context, j *AsyncJob) {
				f.calls.Add(1)
				f.entered <- struct{}{}
				body(ctx, j)
			})
			if st := f.job.Status(); st != JobQueued {
				t.Fatalf("fresh job is %v", st)
			}
			if _, err := f.job.Result(); !errors.Is(err, ErrInvalidArgument) {
				t.Fatalf("Result before any Wait: err = %v, want the has-not-finished error", err)
			}
			tc.act(t, f)
			if st := f.job.Status(); st != tc.status {
				t.Fatalf("status = %v, want %v", st, tc.status)
			}
			if n := f.calls.Load(); n != tc.calls {
				t.Fatalf("body ran %d times, want %d", n, tc.calls)
			}
			// Terminal is final: a later wait, whatever its ctx, reports it
			// and runs nothing.
			if st := f.job.Wait(context.Background()); st != tc.status || f.calls.Load() != tc.calls {
				t.Fatalf("late wait = %v after %d runs", st, f.calls.Load())
			}
			res, err := f.job.Result()
			switch tc.status {
			case JobDone:
				if err != nil || res != want {
					t.Fatalf("result = %v, %v", res, err)
				}
			case JobCancelled:
				if !errors.Is(err, ErrCancelled) {
					t.Fatalf("err = %v, want ErrCancelled", err)
				}
			default:
				if !errors.Is(err, ErrNotSupported) {
					t.Fatalf("err = %v, want the body's", err)
				}
			}
		})
	}
}
