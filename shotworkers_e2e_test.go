package mqsspulse_test

import (
	"context"
	"reflect"
	"testing"

	mqsspulse "mqsspulse"
)

// TestShotWorkersDoNotChangeResultsEndToEnd: the shot-worker count is a
// performance knob and nothing else. The same Bell job on fresh sc-2
// stacks with the same device seed returns identical counts and kerneled
// IQ at 1 and at 4 workers — through qpi.Run on the local adapter, and
// through a RemoteAdapter over the wire.
func TestShotWorkersDoNotChangeResultsEndToEnd(t *testing.T) {
	const shots = 512
	bell := mqsspulse.NewCircuit("bell", 2, 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	if err := bell.End(); err != nil {
		t.Fatal(err)
	}
	freshStack := func(t *testing.T) *mqsspulse.Stack {
		dev, err := mqsspulse.NewSuperconductingDevice("sc-2", 2, 17)
		if err != nil {
			t.Fatal(err)
		}
		stack, err := mqsspulse.NewStack(dev)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stack.Close)
		return stack
	}
	paths := map[string]func(t *testing.T, workers int) *mqsspulse.Result{
		"local": func(t *testing.T, workers int) *mqsspulse.Result {
			backend := &mqsspulse.NativeAdapter{Client: freshStack(t).Client, Target: "sc-2"}
			res, err := mqsspulse.Run(context.Background(), backend, bell, mqsspulse.WithShots(shots),
				mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled), mqsspulse.WithShotWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		"remote": func(t *testing.T, workers int) *mqsspulse.Result {
			stack := freshStack(t)
			srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			remote, err := mqsspulse.NewRemoteAdapter(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			payload, format, err := stack.Client.Compile(bell, "sc-2")
			if err != nil {
				t.Fatal(err)
			}
			res, err := remote.SubmitPayloadCtx(context.Background(), "sc-2", payload, format,
				mqsspulse.SubmitOptions{Shots: shots, MeasLevel: mqsspulse.MeasKerneled, ShotWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	}
	for name, run := range paths {
		t.Run(name, func(t *testing.T) {
			one, four := run(t, 1), run(t, 4)
			if len(one.IQ) != shots {
				t.Fatalf("%d IQ rows at 1 worker, want %d", len(one.IQ), shots)
			}
			if !reflect.DeepEqual(one.Counts, four.Counts) || !reflect.DeepEqual(one.IQ, four.IQ) {
				t.Fatalf("results differ between 1 and 4 shot workers:\n%v\n%v", one.Counts, four.Counts)
			}
		})
	}
}
