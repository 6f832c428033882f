package ptemplate

import (
	"strings"
	"testing"

	"mqsspulse/internal/compiler"
)

// FuzzFromText feeds the register frame's decoder arbitrary program text.
// It must never panic, and a program it accepts verifies, has no slots, and
// carries the format its module's profile implies.
func FuzzFromText(f *testing.F) {
	dev := templateDevice(f)
	rabi, err := Lower(rabiTemplate(f), dev, "tpl-sc")
	if err != nil {
		f.Fatal(err)
	}
	point, err := rabi.Bind(Bindings{"theta": 1.25})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(point.Emit()))
	f.Add(string(rabi.Text()))
	f.Add(strings.Replace(string(point.Emit()), `"required_num_ports"="`, `"required_num_ports"="9`, 1))
	f.Add("define void @empty() #0 {\nentry:\n  ret void\n}\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := FromText(text, 1)
		if err != nil {
			return
		}
		if err := c.Module.Verify(); err != nil {
			t.Fatalf("accepted a program that does not verify: %v", err)
		}
		if c.Module.IsParametric() || len(c.Params) > 0 {
			t.Fatalf("accepted a program with slots %v", c.Module.ParamNames())
		}
		if want := compiler.FormatFor(c.Module); c.Format != want {
			t.Fatalf("format %s, want %s", c.Format, want)
		}
	})
}
