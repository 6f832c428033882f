package qpi

import (
	"testing"

	"mqsspulse/internal/readout"
)

func finishedAcquire(t *testing.T) *Circuit {
	t.Helper()
	c := NewCircuit("acq", 1, 2)
	c.X(0).Barrier().Acquire("q0-readout", 0, 96)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAcquireBuilder(t *testing.T) {
	c := finishedAcquire(t)
	if n := c.CountKind(OpAcquire); n != 1 {
		t.Fatalf("acquire op count %d", n)
	}
	var op Op
	for _, o := range c.ops {
		if o.Kind == OpAcquire {
			op = o
		}
	}
	if op.Port != "q0-readout" || op.Cbit != 0 || op.WindowSamples != 96 {
		t.Fatalf("acquire op fields: %+v", op)
	}
	if !c.HasPulseOps() {
		t.Fatal("acquire must mark the kernel pulse-level")
	}
	if bits := c.MeasuredBits(); len(bits) != 1 || bits[0] != 0 {
		t.Fatalf("measured bits %v", bits)
	}
}

func TestAcquireValidation(t *testing.T) {
	cases := map[string]func(*Circuit) *Circuit{
		"empty port":      func(c *Circuit) *Circuit { return c.Acquire("", 0, 96) },
		"zero window":     func(c *Circuit) *Circuit { return c.Acquire("ro", 0, 0) },
		"negative window": func(c *Circuit) *Circuit { return c.Acquire("ro", 0, -4) },
		"cbit range":      func(c *Circuit) *Circuit { return c.Acquire("ro", 5, 96) },
		"negative cbit":   func(c *Circuit) *Circuit { return c.Acquire("ro", -1, 96) },
	}
	for name, build := range cases {
		c := build(NewCircuit("bad", 1, 2))
		if c.Err() == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestAcquireAndMeasureShareCbitSpace(t *testing.T) {
	c := NewCircuit("dup", 1, 2)
	c.Measure(0, 1).Acquire("ro", 1, 96)
	if c.Err() == nil {
		t.Fatal("acquire onto a measured cbit accepted")
	}
	c = NewCircuit("dup2", 1, 2)
	c.Acquire("ro", 1, 96).Measure(0, 1)
	if c.Err() == nil {
		t.Fatal("measure onto an acquired cbit accepted")
	}
	c = NewCircuit("ok", 1, 2)
	c.Measure(0, 0).Acquire("ro", 1, 96)
	if err := c.Err(); err != nil {
		t.Fatalf("disjoint cbits rejected: %v", err)
	}
}

func TestAcquireAfterEndRejected(t *testing.T) {
	c := finishedAcquire(t)
	c.Acquire("q0-readout", 1, 96)
	if c.Err() == nil {
		t.Fatal("append to finished circuit accepted")
	}
}

func TestMeasOptionsThreadIntoConfig(t *testing.T) {
	cfg := NewExecConfig(WithMeasLevel(readout.LevelRaw), WithMeasReturn(readout.ReturnAverage))
	if cfg.MeasLevel != readout.LevelRaw || cfg.MeasReturn != readout.ReturnAverage {
		t.Fatalf("config %+v", cfg)
	}
	if def := NewExecConfig(); def.MeasLevel != readout.LevelDiscriminated || def.MeasReturn != readout.ReturnSingle {
		t.Fatalf("defaults changed: %+v", def)
	}
}
