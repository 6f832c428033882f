package onlyhere

// Rules is the module's layering (ARCHITECTURE.md §Static analysis).
// benchmark/ is allowed where its per-layer probes drive one layer alone:
// a device, the QRM or the simulator.
var Rules = []Rule{
	{ID: "one way to a device", Why: "only the QRM submits to a device, and only the client hands the QRM a job; qdmitest's Conformance submits to the device it checks",
		Facts: []string{"internal/qdmi.Device.SubmitJob", "internal/qdmi.AcquisitionSubmitter.SubmitJobOpts", "internal/qdmi.ModuleSubmitter.SubmitModule",
			"internal/devices.SimDevice.SubmitJob", "internal/devices.SimDevice.SubmitJobOpts", "internal/devices.SimDevice.SubmitModule",
			"internal/qdmi/qdmitest.Device.SubmitJob", "internal/qdmi/qdmitest.Device.SubmitJobOpts", "internal/qdmi/qdmitest.Device.SubmitModule"},
		Allow: []string{"internal/qrm", "internal/devices", "internal/qdmi/qdmitest", "benchmark"}},
	{ID: "one meaning of a gate", Why: "a gate's decomposition into pulses is the gate table in internal/waveform/gates.go, which both lowerings read; a second switch over gate names is how they came to disagree",
		Facts: []string{`case "sx"`, `case "z"`},
		// synthesizePulse derives x and sx from the one calibrated π amplitude.
		Allow: []string{"internal/devices.SimDevice.synthesizePulse", "benchmark"}},
	{ID: "one calibration writer", Why: "recalibrate copies the calibration, applies the edit, bumps the epoch and publishes, so every write bumps the epoch",
		Facts: []string{"sync/atomic.Pointer[internal/devices.calibration].Store", "internal/devices.calibration.epoch="},
		Scope: []string{"internal/devices"}, Allow: []string{"internal/devices.SimDevice.recalibrate"}},
	{ID: "one prepare path", Why: "a concrete module, and a template at a point its device has no program for, are linked, resolved and prepared by link alone",
		Facts: []string{"internal/qir.BuildSchedule", "internal/simq.Executor.Prepare"},
		Scope: []string{"internal/devices"}, Allow: []string{"internal/devices.SimDevice.link"}},
	{ID: "one slot numbering", Why: "the QIR link numbers a template's slots in the Body-order walk BindSlots numbers a point's values in; a second numbering agrees with it only while every template it sees is one it was written for",
		Facts: []string{"internal/pulse.Slot{}"}, Allow: []string{"internal/qir", "internal/simq.Executor.Prepare"}},
	{ID: "one place a program becomes a schedule", Why: "the device's link verifies and resolves a program once; a pass must not build a schedule to re-check it",
		Facts: []string{"internal/pulse.NewSchedule"}, Scope: []string{"internal/passes", "internal/compiler"}},
	{ID: "one impl player", Why: "a cz or a measurement is played from its qdmi.PulseImpl by play alone, so no hand-built one comes back",
		Facts: []string{"internal/pulse.Barrier{}"}, Scope: []string{"internal/devices"}, Allow: []string{"internal/devices.SimDevice.play"}},
	{ID: "one impl player", Why: "a cz or a measurement is played from its qdmi.PulseImpl by play alone, so no hand-built one comes back",
		Facts: []string{"internal/pulse.Capture{}"}, Scope: []string{"internal/devices"}, Allow: []string{"internal/devices.SimDevice.play"}},
	{ID: "one writer per trace", Why: "a timeline has one writer at a time and a ticket is one atomic state machine, so no lock order is left to rank",
		Facts: []string{"sync.Mutex", "sync.RWMutex"},
		Scope: []string{"internal/telemetry.Timeline", "internal/telemetry.Span", "internal/qrm.Ticket", "internal/qdmi.Session"}},
	{ID: "one writer per trace", Why: "no lock order is left to rank", Facts: []string{"mqss:lockrank"}},
	{ID: "named goroutines and waits", Why: "the stack's concurrency is the functions listed here, each ended under cancel or Close by its test with testutil.AssertNoLeaks on; a job's shots are drawn on the goroutine that runs it",
		Facts: []string{"blocks"}, Scope: []string{"", "internal", "cmd"},
		Allow: []string{
			"internal/qrm.Scheduler.ensureDeviceLocked TestWorkStealingIdleSiblingTakesQueuedJob",      // one dispatch worker per device
			"internal/qrm.Scheduler.worker TestCancelRunningTicketAbortsDeviceJob",                     // cond.Wait until work or Close
			"internal/qrm.Scheduler.Close TestCloseRejectsNewWork",                                     // waits for the workers
			"internal/client.Client.SubmitBatch TestSubmitBatchCancelledContext",                       // compile workers leave on ctx.Done
			"internal/client.NewServer TestRemoteRoundtrip",                                            // starts acceptLoop
			"internal/client.Server.acceptLoop TestRemoteSubmitDeadline",                               // one serve goroutine per connection
			"internal/client.Server.Close TestServerMaxJobTime",                                        // waits for acceptLoop and every connection
			"internal/qdmi/qdmitest.Device.submit internal/qrm.TestCancelRunningTicketAbortsDeviceJob", // an OffThread job
		}},
	{ID: "one request builder", Why: "Client.enqueue builds the request of every local, sweep, remote, calibration and VQE job, so its target, pool, epoch and deadline are set once",
		Facts: []string{"internal/qrm.Request{}"}, Allow: []string{"internal/client.Client.enqueue", "benchmark"}},
	{ID: "one QIR builder", Why: "callers write QPI kernels and templates, so a job is lowered, legalized and checked on one path",
		Facts: []string{"internal/qir.Module{}", "internal/qir.Call{}"}, Allow: []string{"internal/compiler", "internal/qir"}},
	{ID: "one waveform value", Why: "a waveform is one *waveform.Waveform from kernel to schedule; no layer converts it to [re, im] pairs and back",
		Facts: []string{"[][2]float64", "def ToSpec", "def SpecFromEnvelope"},
		Scope: []string{"", "cmd", "examples", "internal/waveform", "internal/mlir", "internal/passes", "internal/compiler",
			"internal/qdmi", "internal/devices", "internal/calib", "internal/qir"}},
	{ID: "one waveform value", Why: "the pair form waveform.Spec is deleted", Facts: []string{"def Spec"}, Scope: []string{"internal/waveform"}},
	{ID: "optctl is pure math", Why: "GRAPE, SPSA and Nelder-Mead optimize whatever objective they are handed, never a model of the hardware of their own",
		Facts: []string{"internal/optctl imports"}, Allow: []string{"internal/linalg"}},
	{ID: "one sampler", Why: "a job's shots are drawn serially on the goroutine that runs it; the shot-worker knob is two no-op shims the benchmark compiles against",
		Facts: []string{"def ShotWorkers", "def WithShotWorkers", "internal/qpi.WithShotWorkers", "internal/simq.ExecOptions.ShotWorkers"},
		Allow: []string{"internal/qpi.WithShotWorkers", "internal/simq.ExecOptions", "benchmark"}},
}
