package client

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mqsspulse/internal/qpi"
)

// InterpretedAdapter is the scripting-runtime stand-in for the paper's
// Section 5.1 overhead comparison: instead of calling compiled QPI
// functions, callers hand over a textual program which the adapter
// tokenizes, validates, and interprets into a kernel on every submission —
// paying parse, allocation, and dynamic-dispatch costs per call, exactly
// where a Python front end pays interpreter costs.
//
// Program grammar (one statement per line, '#' comments):
//
//	circuit <name> <qubits> <classical>
//	x|y|z|h|s|t|sx <qubit>
//	rx|ry|rz <qubit> <theta>
//	cz|cx|iswap <a> <b>
//	waveform <name> <re,im> <re,im> ...
//	play <port> <waveform>
//	framechange <port> <freqHz> <phaseRad>
//	delay <port> <samples>
//	barrier
//	measure <qubit> <cbit>
type InterpretedAdapter struct {
	Client *Client
	Target string
}

// ParseProgram interprets the textual program into a QPI kernel.
func (a *InterpretedAdapter) ParseProgram(src string) (*qpi.Circuit, error) {
	var c *qpi.Circuit
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		argErr := func() error {
			return fmt.Errorf("client: line %d: malformed %q", ln+1, line)
		}
		if op == "circuit" {
			if len(fields) != 4 {
				return nil, argErr()
			}
			q, err1 := strconv.Atoi(fields[2])
			cl, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil {
				return nil, argErr()
			}
			c = qpi.NewCircuit(fields[1], q, cl)
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("client: line %d: statement before circuit header", ln+1)
		}
		if g, ok := qpi.Gates[op]; ok { // the gate's qubits, then its angles
			if len(fields) != 1+g.Arity+g.Params {
				return nil, argErr()
			}
			qubits, params := make([]int, g.Arity), make([]float64, g.Params)
			for i, f := range fields[1:] {
				var err error
				if i < g.Arity {
					qubits[i], err = strconv.Atoi(f)
				} else {
					params[i-g.Arity], err = strconv.ParseFloat(f, 64)
				}
				if err != nil {
					return nil, argErr()
				}
			}
			c.Gate(op, qubits, params...)
			continue
		}
		switch op {
		case "waveform":
			if len(fields) < 3 {
				return nil, argErr()
			}
			samples := make([]complex128, 0, len(fields)-2)
			for _, f := range fields[2:] {
				parts := strings.SplitN(f, ",", 2)
				if len(parts) != 2 {
					return nil, argErr()
				}
				re, err1 := strconv.ParseFloat(parts[0], 64)
				im, err2 := strconv.ParseFloat(parts[1], 64)
				if err1 != nil || err2 != nil {
					return nil, argErr()
				}
				samples = append(samples, complex(re, im))
			}
			c.Waveform(fields[1], samples)
		case "play":
			if len(fields) != 3 {
				return nil, argErr()
			}
			c.PlayWaveform(fields[1], fields[2])
		case "framechange":
			if len(fields) != 4 {
				return nil, argErr()
			}
			freq, err1 := strconv.ParseFloat(fields[2], 64)
			phase, err2 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil {
				return nil, argErr()
			}
			c.FrameChange(fields[1], freq, phase)
		case "delay":
			if len(fields) != 3 {
				return nil, argErr()
			}
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, argErr()
			}
			c.Delay(fields[1], n)
		case "barrier":
			c.Barrier()
		case "measure":
			if len(fields) != 3 {
				return nil, argErr()
			}
			q, err1 := strconv.Atoi(fields[1])
			cb, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, argErr()
			}
			c.Measure(q, cb)
		default:
			return nil, fmt.Errorf("client: line %d: unknown statement %q", ln+1, op)
		}
	}
	if c == nil {
		return nil, fmt.Errorf("client: program has no circuit header")
	}
	if err := c.End(); err != nil {
		return nil, err
	}
	return c, nil
}

// ExecuteCtx parses and runs a textual program under ctx: cancellation and
// deadlines propagate through the scheduler to the device.
func (a *InterpretedAdapter) ExecuteCtx(ctx context.Context, src string, opts SubmitOptions) (*qpi.Result, error) {
	c, err := a.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return a.Client.RunCtx(ctx, c, a.Target, opts)
}
