package ptemplate

import (
	"strings"
	"testing"

	"mqsspulse/internal/compiler"
)

// FuzzFromText feeds the register frame's decoder arbitrary program text and
// parameter declarations (comma-separated names, each over [0, 1]). It must
// never panic, and a program it accepts verifies, declares every parameter
// its slots name exactly once, and carries the format its module's profile
// implies.
func FuzzFromText(f *testing.F) {
	dev := templateDevice(f)
	rabi, err := Lower(rabiTemplate(f), dev, "tpl-sc")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(rabi.Text()), "theta")
	f.Add(string(rabi.Text()), "theta,theta")
	f.Add(string(rabi.Text()), "")
	f.Add("define void @empty() #0 {\nentry:\n  ret void\n}\n", "")
	f.Add("garbage", "a,b")
	f.Fuzz(func(t *testing.T, text, names string) {
		var params []Param
		if names != "" {
			for _, name := range strings.Split(names, ",") {
				params = append(params, Param{Name: name, Min: 0, Max: 1})
			}
		}
		c, err := FromText(text, params, 1)
		if err != nil {
			return
		}
		if err := c.Module.Verify(); err != nil {
			t.Fatalf("accepted a program that does not verify: %v", err)
		}
		declared := map[string]int{}
		for _, p := range c.Params {
			declared[p.Name]++
		}
		for _, name := range c.Module.ParamNames() {
			if declared[name] != 1 {
				t.Fatalf("slot parameter %q declared %d times", name, declared[name])
			}
		}
		if want := compiler.FormatFor(c.Module); c.Format != want {
			t.Fatalf("format %s, want %s", c.Format, want)
		}
	})
}
