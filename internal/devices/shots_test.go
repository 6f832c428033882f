package devices

import (
	"context"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/telemetry"
)

// runOpts executes a module through SubmitJobOpts and returns the result.
func runOpts(t *testing.T, d *SimDevice, m *qir.Module, opts qdmi.JobOptions) *qdmi.Result {
	t.Helper()
	job, err := d.SubmitJobOpts(m.Emit(), qdmi.FormatQIRBase, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		t.Fatalf("job status %v", st)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestShotTelemetryCounters(t *testing.T) {
	// A traced job must publish its shot count into the registry the
	// timeline feeds: the fleet-wide counter, the per-device counter and
	// the per-shot latency histogram.
	d := newSC(t)
	reg := telemetry.NewRegistry()
	tl := telemetry.NewTimeline("", reg)
	m := gateModule("xcount", 1, 1, []qir.Call{g1(qir.IntrX, 0), mz(0, 0)})
	const shots = 500
	res := runOpts(t, d, m, qdmi.JobOptions{Shots: shots, Telemetry: tl})
	if res.Shots != shots {
		t.Fatalf("res.Shots = %d", res.Shots)
	}
	if got := reg.Counter("simq/shots").Load(); got != shots {
		t.Fatalf("simq/shots counter = %d, want %d", got, shots)
	}
	if got := reg.Counter("simq/shots/" + d.cfg.Name).Load(); got != shots {
		t.Fatalf("per-device shot counter = %d, want %d", got, shots)
	}
	if n := reg.Hist("simq/shot_latency/" + d.cfg.Name).Snapshot().Count; n != 1 {
		t.Fatalf("shot-latency histogram has %d observations, want 1", n)
	}
}
