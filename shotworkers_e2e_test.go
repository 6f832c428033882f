package mqsspulse_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"reflect"
	"testing"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/qpi"
)

// TestShotWorkersDoNotChangeResultsEndToEnd: the shot-worker knob is gone,
// and what is left of it changes nothing. The same Bell job on fresh sc-2
// stacks with the same device seed returns identical counts and kerneled IQ
// with and without the deprecated qpi.WithShotWorkers option, and with and
// without the shot_workers field an older adapter still puts on the wire.
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
	t.Run("local", func(t *testing.T) {
		run := func(opts ...mqsspulse.ExecOption) *mqsspulse.Result {
			backend := &mqsspulse.NativeAdapter{Client: freshStack(t).Client, Target: "sc-2"}
			opts = append(opts, mqsspulse.WithShots(shots), mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled))
			res, err := mqsspulse.Run(context.Background(), backend, bell, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, asked := run(), run(qpi.WithShotWorkers(4))
		if len(plain.IQ) != shots {
			t.Fatalf("%d IQ rows, want %d", len(plain.IQ), shots)
		}
		if !reflect.DeepEqual(plain.Counts, asked.Counts) || !reflect.DeepEqual(plain.IQ, asked.IQ) {
			t.Fatalf("WithShotWorkers(4) changed the result:\n%v\n%v", plain.Counts, asked.Counts)
		}
	})
	t.Run("remote", func(t *testing.T) {
		// An older adapter's submit frame, written by hand: the server reads
		// it field by field and has no shot_workers field left to read.
		run := func(workerField string) map[string]json.RawMessage {
			stack := freshStack(t)
			payload, _, err := stack.Client.Compile(bell, "sc-2")
			if err != nil {
				t.Fatal(err)
			}
			srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			exchange := func(req map[string]any) map[string]json.RawMessage {
				line, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(append(line, '\n')); err != nil {
					t.Fatal(err)
				}
				out, err := rd.ReadBytes('\n')
				if err != nil {
					t.Fatal(err)
				}
				var resp map[string]json.RawMessage
				if err := json.Unmarshal(out, &resp); err != nil {
					t.Fatal(err)
				}
				if e, ok := resp["error"]; ok {
					t.Fatalf("%s: %s", req["op"], e)
				}
				return resp
			}
			exchange(map[string]any{"op": "register", "id": "bell", "program": string(payload)})
			submit := map[string]any{"op": "submit", "id": "bell", "device": "sc-2", "shots": shots, "meas_level": "kerneled"}
			if workerField != "" {
				submit[workerField] = 4
			}
			return exchange(submit)
		}
		plain, asked := run(""), run("shot_workers")
		var iq [][][2]float64
		if err := json.Unmarshal(plain["iq"], &iq); err != nil || len(iq) != shots {
			t.Fatalf("%d IQ rows (%v), want %d", len(iq), err, shots)
		}
		for _, field := range []string{"counts", "iq"} {
			if string(plain[field]) != string(asked[field]) {
				t.Fatalf("shot_workers on the wire changed %s:\n%s\n%s", field, plain[field], asked[field])
			}
		}
	})
}
