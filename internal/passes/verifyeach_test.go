package passes

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/waveform"
)

// verifyCorpus is n of the property tests' random gate programs, each with a
// played five-sample user waveform in front so legalization has something to
// pad (the preset's granularity is 8) and replaces that def's waveform.
func verifyCorpus(n int) []*mlir.Module {
	rng := rand.New(rand.NewSource(41))
	var corpus []*mlir.Module
	for trial := 0; trial < n; trial++ {
		defs := []*mlir.WaveformDef{{Name: "odd", Waveform: &waveform.Waveform{
			Name: "odd", Samples: []complex128{0.1, complex(0.2, 0.1), 0.3, complex(0.2, -0.1), 0.1},
		}}}
		ops := append([]mlir.Op{
			&mlir.WaveformRefOp{Result: "wodd", Waveform: "odd"},
			&mlir.PlayOp{Frame: mlir.Ref("f0"), Waveform: mlir.Ref("wodd")},
		}, randomGateOps(rng)...)
		corpus = append(corpus, propertyModule(ops, defs))
	}
	return corpus
}

// TestManagerCatchesCorruptionAtEveryPosition: wherever in the default
// pipeline a pass corrupts the module — in front of a read-only pass, behind
// one, first, last — the manager reports it before the next pass runs.
func TestManagerCatchesCorruptionAtEveryPosition(t *testing.T) {
	dev, err := devices.Superconducting("pos-sc", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	std := DefaultPipeline().passes
	for pos := 0; pos <= len(std); pos++ {
		pm := NewManager()
		for _, p := range std[:pos] {
			pm.Add(p)
		}
		pm.Add(breakingPass{})
		for _, p := range std[pos:] {
			pm.Add(p)
		}
		ctx := NewContext(dev)
		err := pm.Run(verifyCorpus(1)[0], ctx)
		if err == nil || !strings.Contains(err.Error(), "module invalid after breaker") {
			t.Fatalf("breaker at position %d: err = %v", pos, err)
		}
		// One timing per pass that ran to completion: those in front of the
		// breaker, and the breaker.
		if len(ctx.Timings) != pos+1 {
			t.Fatalf("breaker at position %d: %d passes ran, want %d", pos, len(ctx.Timings), pos+1)
		}
	}
}

// TestReadOnlyPassesLeaveModuleUntouched holds every pass that declares
// itself read-only to its word — the manager skips the verify after it on
// that word alone — and checks after every pass that no pass wrote into a
// waveform a def held: the passes share waveforms, so a pass that changes a
// def's samples replaces its waveform.
func TestReadOnlyPassesLeaveModuleUntouched(t *testing.T) {
	dev, err := devices.Superconducting("ro-sc", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var readOnly []string
	padded := 0
	for trial, m := range verifyCorpus(40) {
		ctx := NewContext(dev)
		seen := map[*waveform.Waveform][]complex128{}
		for _, p := range DefaultPipeline().passes {
			_, ro := p.(ReadOnlyPass)
			before := m.Print()
			if err := p.Run(m, ctx); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, p.Name(), err)
			}
			if ro {
				if trial == 0 {
					readOnly = append(readOnly, p.Name())
				}
				if after := m.Print(); after != before {
					t.Fatalf("trial %d: read-only pass %s changed the module\nbefore:\n%s\nafter:\n%s",
						trial, p.Name(), before, after)
				}
			}
			for _, def := range m.WaveformDefs {
				if _, ok := seen[def.Waveform]; !ok {
					seen[def.Waveform] = slices.Clone(def.Waveform.Samples)
				}
			}
			for w, samples := range seen {
				if !slices.Equal(w.Samples, samples) {
					t.Fatalf("trial %d: %s wrote into waveform %s", trial, p.Name(), w.Name)
				}
			}
		}
		padded += ctx.Stats["legalize.padded"]
	}
	if got := strings.Join(readOnly, ","); got != "verify,verify-calibration" {
		t.Fatalf("read-only passes = %q, want verify and verify-calibration", got)
	}
	if padded == 0 {
		t.Fatal("no def was padded: the waveform-replacement path was not exercised")
	}
}
