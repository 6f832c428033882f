package waveform

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode exercises the parametric decoder — EnvelopeFromSpec followed by
// Materialize, the path an MLIR `kind = …` def takes to samples — with an
// arbitrary kind, parameter list and length: it must either reject the spec
// or produce a waveform of that length satisfying the package invariants
// (Check passes), and the envelope's own (Kind, Params) must decode to the
// same samples.
func FuzzDecode(f *testing.F) {
	seeds := []struct {
		kind, params string
		n            uint16
	}{
		{"gaussian", "amplitude=0.8,sigma_frac=0.2", 32},
		{"drag", "amplitude=0.5,sigma_frac=0.2,beta=0.7", 16},
		{"gaussian", "amplitude=0.8,sigma_frac=0.2", 0},
		{"constant", "amplitude=1", 1},
		{"constant", "amplitude=0.5,sigma_frac=0.2", 4},
		{"", "", 0},
		{"not a kind", "garbage", 3},
		{"constant", "amplitude=2", 4},
		{"gaussian_square", "amplitude=0.9,rise_frac=0.15", 40},
		{"raised_cosine", "amplitude=0.4", 1},
		{"blackman", "amplitude=-0.5", 24},
	}
	for _, s := range seeds {
		f.Add(s.kind, s.params, s.n)
	}
	f.Fuzz(func(t *testing.T, kind, text string, n uint16) {
		params := map[string]float64{}
		if text != "" {
			for _, kv := range strings.Split(text, ",") {
				k, v, ok := strings.Cut(kv, "=")
				x, err := strconv.ParseFloat(v, 64)
				if !ok || err != nil {
					return
				}
				params[k] = x
			}
		}
		e, err := EnvelopeFromSpec(kind, params)
		if err != nil {
			return
		}
		w, err := e.Materialize("w", int(n))
		if err != nil {
			return
		}
		if w.Len() != int(n) {
			t.Fatalf("%s %v: asked for %d samples, got %d", kind, params, n, w.Len())
		}
		if err := w.Check(); err != nil {
			t.Fatalf("%s %v (n=%d): Materialize returned a waveform Check rejects: %v", kind, params, n, err)
		}
		re, err := EnvelopeFromSpec(e.Kind(), e.Params())
		if err != nil {
			t.Fatalf("%s %v: own spec rejected: %v", kind, params, err)
		}
		w2, err := re.Materialize("w", int(n))
		if err != nil {
			t.Fatalf("%s %v: own spec does not materialize: %v", kind, params, err)
		}
		if !w.Equal(w2, 1e-12) {
			t.Fatalf("%s %v: round trip through (Kind, Params) changed samples", kind, params)
		}
	})
}
