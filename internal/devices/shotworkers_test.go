package devices

import (
	"context"
	"reflect"
	"runtime"
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

func TestShotWorkersResolution(t *testing.T) {
	d := newSC(t)
	if got := d.ShotWorkers(); got != 1 {
		t.Fatalf("default ShotWorkers() = %d, want 1 (serial)", got)
	}
	d.cfg.ShotWorkers = 6
	if got := d.ShotWorkers(); got != 6 {
		t.Fatalf("configured ShotWorkers() = %d, want 6", got)
	}
	d.cfg.ShotWorkers = -1
	if got := d.ShotWorkers(); got != runtime.NumCPU() {
		t.Fatalf("negative ShotWorkers() = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
}

func TestShotWorkersDeviceProperty(t *testing.T) {
	d := newSC(t)
	d.cfg.ShotWorkers = 3
	v, err := d.QueryDeviceProperty(qdmi.DevicePropShotWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := v.(int); !ok || n != 3 {
		t.Fatalf("DevicePropShotWorkers = %v, want 3", v)
	}
}

func TestShotTelemetryCounters(t *testing.T) {
	// A traced job must publish its shot count into the registry the
	// timeline feeds: the fleet-wide counter, the per-device counter, the
	// per-shot latency histogram, and one busy-time observation per
	// worker.
	d := newSC(t)
	reg := telemetry.NewRegistry()
	tl := telemetry.NewTimeline("", reg)
	m := gateModule("xcount", 1, 1, []qir.Call{g1(qir.IntrX, 0), mz(0, 0)})
	const shots = 500
	res := runOpts(t, d, m, qdmi.JobOptions{Shots: shots, Telemetry: tl, ShotWorkers: 2})
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
	if n, want := busyObservations(reg, d), min(2, runtime.GOMAXPROCS(0)); n != want {
		t.Fatalf("worker-busy histogram has %d observations, want one per worker (%d)", n, want)
	}
}

// busyObservations counts the worker-busy observations d's jobs left in
// reg: one per shot worker per job.
func busyObservations(reg *telemetry.Registry, d *SimDevice) int {
	return int(reg.Hist("simq/worker_busy/" + d.cfg.Name).Snapshot().Count)
}

func TestShotWorkersJobOverrideMatchesDeviceConfig(t *testing.T) {
	// The per-job ShotWorkers override and the device-level default must
	// resolve to the same execution: a job overriding to 4 workers on a
	// serial-default device runs on as many workers as the same job on a
	// device configured with 4, and both return the serial counts.
	m := gateModule("hsw", 1, 1, []qir.Call{g1(qir.IntrH, 0), mz(0, 0)})
	run := func(configured, override int) (*qdmi.Result, int) {
		d, err := Superconducting("sc-sw", 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		d.cfg.ShotWorkers = configured
		reg := telemetry.NewRegistry()
		res := runOpts(t, d, m, qdmi.JobOptions{Shots: 2000, ShotWorkers: override, Telemetry: telemetry.NewTimeline("", reg)})
		return res, busyObservations(reg, d)
	}
	serial, _ := run(1, 0)
	want := min(4, runtime.GOMAXPROCS(0))
	for name, r := range map[string][2]int{"device config": {4, 0}, "job override": {1, 4}} {
		res, workers := run(r[0], r[1])
		if workers != want {
			t.Fatalf("%s: job ran on %d workers, want %d", name, workers, want)
		}
		if !reflect.DeepEqual(res.Counts, serial.Counts) {
			t.Fatalf("%s: counts differ from the serial run:\n%v\n%v", name, res.Counts, serial.Counts)
		}
	}
}

func TestShotWorkersClampedToGOMAXPROCS(t *testing.T) {
	// The per-job worker count arrives unvalidated from the wire: an absurd
	// request must not start more workers than there are processors, and —
	// as for any worker count — must not change the result.
	m := gateModule("hclamp", 1, 1, []qir.Call{g1(qir.IntrH, 0), mz(0, 0)})
	run := func(workers int) (*qdmi.Result, int) {
		d := openSC(t, 1)
		reg := telemetry.NewRegistry()
		res := runOpts(t, d, m, qdmi.JobOptions{Shots: 4096, ShotWorkers: workers, Telemetry: telemetry.NewTimeline("", reg)})
		return res, busyObservations(reg, d)
	}
	serial, _ := run(1)
	res, workers := run(1_000_000)
	if workers < 1 || workers > runtime.GOMAXPROCS(0) {
		t.Fatalf("job asking for 1,000,000 workers ran on %d, GOMAXPROCS = %d", workers, runtime.GOMAXPROCS(0))
	}
	if !reflect.DeepEqual(res.Counts, serial.Counts) {
		t.Fatalf("counts differ from the 1-worker run:\n%v\n%v", res.Counts, serial.Counts)
	}
}
