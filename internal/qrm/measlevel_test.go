package qrm

import (
	"context"
	"errors"
	"testing"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/readout"
)

// TestMeasLevelRequiresAcquisitionCapability checks the scheduler fails a
// kerneled-level request cleanly when the target device only implements
// plain SubmitJob.
func TestMeasLevelRequiresAcquisitionCapability(t *testing.T) {
	s := rig(t, plain(device("qpu")))
	tk, err := s.SubmitCtx(context.Background(), Request{
		Device: "qpu", Payload: []byte("job"), Format: qdmi.FormatQIRBase,
		Shots: 10, MeasLevel: readout.LevelKerneled,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Wait(context.Background())
	if err == nil {
		t.Fatal("kerneled request to a counts-only device succeeded")
	}
	if !errors.Is(err, qdmi.ErrNotSupported) {
		t.Fatalf("error %v, want ErrNotSupported", err)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v, want one failure", st)
	}
}

// TestDiscriminatedLevelWorksWithoutCapability pins backward compatibility:
// the default level dispatches through plain SubmitJob.
func TestDiscriminatedLevelWorksWithoutCapability(t *testing.T) {
	s := rig(t, plain(device("qpu")))
	tk, err := s.SubmitCtx(context.Background(), Request{
		Device: "qpu", Payload: []byte("job"), Format: qdmi.FormatQIRBase, Shots: 10,
	})
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
}

// TestTemplateNeedsModuleSubmitter: a compiled program reaches a device only
// as a module. A device that takes text alone fails the job with
// qdmi.ErrNotSupported and is handed nothing; a device with the capability
// gets the cached module itself.
func TestTemplateNeedsModuleSubmitter(t *testing.T) {
	textOnly, modules := device("text"), device("modules")
	s := rig(t, plain(textOnly), modules)
	program, err := ptemplate.FromText(qdmitest.Program, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		device string
		want   error
	}{{"text", qdmi.ErrNotSupported}, {"modules", nil}} {
		tk, err := s.SubmitCtx(context.Background(), Request{Device: tc.device, Template: program, Shots: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.device, err, tc.want)
		}
	}
	if subs := textOnly.Submissions(); len(subs) != 0 {
		t.Fatalf("the text-only device was handed %d jobs", len(subs))
	}
	if subs := modules.Submissions(); len(subs) != 1 || subs[0].Module != program.Module {
		t.Fatalf("the module device was handed %+v, want the program's module", subs)
	}
}
