package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/testutil"
)

// These tests pin the one-program invariant: the lowering cache holds
// ptemplate.Compiled values, a cached program's module is shared by every
// job that uses it and never modified, and QIR text is produced or parsed
// only where text is the interface.

func acquireKernel(t *testing.T, window int64) *qpi.Circuit {
	t.Helper()
	k := qpi.NewCircuit("acq", 1, 1).X(0).Barrier().Acquire("q0-readout", 0, window)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestLoweringCacheAcquireWindowKeyed: two Acquire kernels that differ only
// in window length must not share a cache entry (the concrete fingerprint
// used to omit Op.WindowSamples).
func TestLoweringCacheAcquireWindowKeyed(t *testing.T) {
	c, _ := testStack(t)
	p96, _, err := c.Compile(acquireKernel(t, 96), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	p192, _, err := c.Compile(acquireKernel(t, 192), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	if string(p96) == string(p192) {
		t.Fatal("acquisition windows 96 and 192 lowered to the same payload")
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2: the second window was served from the first's entry", st.Hits, st.Misses)
	}
}

// TestCachedJobReachesDeviceAsModule: a cached local concrete job is one
// SubmitModule of the cached module — no text round trip — and a stale one
// never reaches the device at all.
func TestCachedJobReachesDeviceAsModule(t *testing.T) {
	c, sim := testStack(t)
	dev := stackDevice(c)
	ctx := context.Background()
	k := bell(t)
	if _, err := c.RunCtx(ctx, k, "hpcqc-sc", SubmitOptions{Shots: 16}); err != nil {
		t.Fatal(err)
	}
	program, _, err := c.lower(cacheKey{"hpcqc-sc", k.Key()}, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunCtx(ctx, k, "hpcqc-sc", SubmitOptions{Shots: 16}); err != nil {
		t.Fatal(err)
	}
	if subs := dev.Submissions(); len(subs) != 2 || subs[1].Module != program.Module {
		t.Fatalf("cached job reached the device as %+v, want the cached module", subs[len(subs)-1])
	}
	if c.CacheStats().Hits != 2 {
		t.Fatalf("cache hits = %d, want 2", c.CacheStats().Hits)
	}

	sim.SetCalibratedFrequency(0, sim.CalibratedFrequency(0)+1e3)
	tk, err := c.QRM().SubmitCtx(ctx, qrm.Request{
		Device: "hpcqc-sc", Template: program, Shots: 16, CalibrationEpoch: program.Epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("stale concrete program dispatched: err = %v", err)
	}
	if n := len(dev.Submissions()); n != 2 {
		t.Fatalf("stale program reached the device (%d submissions, want 2)", n)
	}
}

// TestModuleAndTextSubmissionsAgree: the same Bell program submitted as
// text and as its in-memory module to identically seeded devices returns
// identical counts, IQ points and raw traces at every measurement level —
// skipping the emit/parse round trip changes no result.
func TestModuleAndTextSubmissionsAgree(t *testing.T) {
	for _, level := range []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw} {
		run := func(asModule bool) *qdmi.Result {
			c, dev := sweepStack(t, 2024)
			k := bell(t)
			program, err := ptemplate.LowerCircuit(k, nil, dev)
			if err != nil {
				t.Fatal(err)
			}
			req := qrm.Request{Device: "hpcqc-sc", Shots: 300, MeasLevel: level, CalibrationEpoch: program.Epoch}
			if asModule {
				req.Template = program
			} else {
				req.Payload, req.Format = program.Text(), program.Format
			}
			tk, err := c.QRM().SubmitCtx(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		text, module := run(false), run(true)
		if !reflect.DeepEqual(text.Counts, module.Counts) ||
			!reflect.DeepEqual(text.IQ, module.IQ) || !reflect.DeepEqual(text.Raw, module.Raw) {
			t.Fatalf("%s: text and module submissions of one program disagree", level)
		}
		if level != readout.LevelDiscriminated && len(module.IQ) == 0 {
			t.Fatalf("%s: no IQ records returned", level)
		}
	}
}

// TestConcurrentJobsShareOneCachedProgram: 64 jobs in flight over a
// 4-device pool all run the one cached module. The members are seeded
// alike, so the n-th job on any of them must equal the n-th job of a serial
// run on a fifth twin — which it would not if a job could disturb the
// module under another. Run under -race.
func TestConcurrentJobsShareOneCachedProgram(t *testing.T) {
	const jobs, members, shots, seed = 64, 4, 200, 99
	testutil.AssertNoLeaks(t)
	drv := qdmi.NewDriver()
	names := make([]string, members+1)
	for i := range names {
		names[i] = fmt.Sprintf("twin-%d", i)
		dev, err := devices.Superconducting(names[i], 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.RegisterDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	c := New(drv.OpenSession())
	t.Cleanup(c.Close)
	if err := c.QRM().RegisterPool("twins", names[:members]...); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := qpi.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}

	serial := make([]string, jobs)
	for i := range serial {
		res, err := c.RunCtx(ctx, k, names[members], SubmitOptions{Shots: shots})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = fmt.Sprint(res.Counts)
	}

	// Lower the pool's program (compiled against its first member) up
	// front, so every one of the concurrent jobs is a cache hit.
	if _, _, err := c.Compile(k, names[0]); err != nil {
		t.Fatal(err)
	}
	kernels := make([]*qpi.Circuit, jobs)
	for i := range kernels {
		kernels[i] = k
	}
	tickets, errs := c.SubmitBatch(ctx, kernels, "", SubmitOptions{Shots: shots, Pool: "twins"})
	perDevice := map[string]map[string]int{}
	for i, tk := range tickets {
		if tk == nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if perDevice[tk.Device()] == nil {
			perDevice[tk.Device()] = map[string]int{}
		}
		perDevice[tk.Device()][fmt.Sprint(res.Counts)]++
	}
	for name, got := range perDevice {
		n := 0
		for _, count := range got {
			n += count
		}
		want := map[string]int{}
		for _, counts := range serial[:n] {
			want[counts]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s ran %d jobs whose results differ from the first %d serial jobs:\n got %v\nwant %v", name, n, n, got, want)
		}
	}
	if st := c.CacheStats(); st.Misses != 2 || st.Hits != 2*jobs-1 {
		t.Fatalf("misses=%d hits=%d, want one program per compile target (2) and every other lookup a hit (%d)",
			st.Misses, st.Hits, 2*jobs-1)
	}
}

// TestSubmitOptionsDeadlineHonoured: the Deadline field bounds a job
// wherever SubmitOptions is accepted locally, not only through the QPI
// adapter.
func TestSubmitOptionsDeadlineHonoured(t *testing.T) {
	c, _ := testStack(t)
	release, _ := blockGate(c)
	defer close(release)
	past := SubmitOptions{Shots: 8, Deadline: time.Now().Add(-time.Second)}
	if _, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
	soon := SubmitOptions{Shots: 8, Deadline: time.Now().Add(50 * time.Millisecond)}
	tk, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", soon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, qrm.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job held past its deadline: err = %v, want ErrCancelled and DeadlineExceeded", err)
	}
}

// TestTextPayloadResultBeyondBit63Fails: a shot's outcome is one 64-bit
// mask. A QIR text job that writes result 63 — a pulse-level capture or a
// gate-level mz — runs, and one that writes result 64 fails its job with
// qdmi.ErrInvalidArgument instead of running with that outcome lost.
func TestTextPayloadResultBeyondBit63Fails(t *testing.T) {
	c, _ := testStack(t)
	ctx := context.Background()
	modules := func(result int64) []*qir.Module {
		return []*qir.Module{{
			ID: "capture", Profile: qir.ProfilePulse, EntryName: "capture",
			NumQubits: 1, NumResults: int(result) + 1, NumPorts: 1, PortNames: []string{"q0-readout"},
			Body: []qir.Call{{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(0), qir.ResultArg(result), qir.I64Arg(96)}}},
		}, {
			ID: "mz", Profile: qir.ProfileBase, EntryName: "mz",
			NumQubits: 1, NumResults: int(result) + 1,
			Body: []qir.Call{
				{Callee: qir.GateIntrinsics["x"], Args: []qir.Arg{qir.QubitArg(0)}},
				{Callee: qir.IntrMz, Args: []qir.Arg{qir.QubitArg(0), qir.ResultArg(result)}},
			},
		}}
	}
	for _, result := range []int64{63, 64} {
		for _, m := range modules(result) {
			format := qdmi.FormatQIRBase
			if m.Profile == qir.ProfilePulse {
				format = qdmi.FormatQIRPulse
			}
			tk, err := c.QRM().SubmitCtx(ctx, qrm.Request{Device: "hpcqc-sc", Payload: m.Emit(), Format: format, Shots: 10})
			if err != nil {
				t.Fatal(err)
			}
			_, err = tk.Wait(ctx)
			if result < 64 && err != nil {
				t.Fatalf("%s into result %d: %v", m.ID, result, err)
			}
			if result >= 64 && !errors.Is(err, qdmi.ErrInvalidArgument) {
				t.Fatalf("%s into result %d: err = %v, want qdmi.ErrInvalidArgument", m.ID, result, err)
			}
		}
	}
}
