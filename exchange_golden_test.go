package mqsspulse_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/experiments"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// exchangeHash accumulates one artifact of a corpus: every item is written
// with its length first, so the digest pins the items and their borders.
type exchangeHash struct{ h hash.Hash }

func newExchangeHash() *exchangeHash { return &exchangeHash{h: sha256.New()} }

func (x *exchangeHash) word(v uint64) { _ = binary.Write(x.h, binary.LittleEndian, v) }

func (x *exchangeHash) bytes(b []byte) {
	x.word(uint64(len(b)))
	x.h.Write(b)
}

func (x *exchangeHash) sum() string { return hex.EncodeToString(x.h.Sum(nil)) }

// exchangeCorpus hashes the three artifacts each exchange layer hands the
// next: the MLIR module after the pass pipeline (Print), the QIR payload
// (Emit) and the schedule the device links from it (one Instruction.String
// line each).
type exchangeCorpus struct{ mlir, qir, sched *exchangeHash }

func newExchangeCorpus() *exchangeCorpus {
	return &exchangeCorpus{newExchangeHash(), newExchangeHash(), newExchangeHash()}
}

func (c *exchangeCorpus) add(t *testing.T, dev *devices.SimDevice, res *compiler.Result) {
	t.Helper()
	c.mlir.bytes([]byte(res.MLIR.Print()))
	c.qir.bytes(res.QIR.Emit())
	c.schedule(t, dev, res.QIR)
}

func (c *exchangeCorpus) schedule(t *testing.T, dev *devices.SimDevice, mod *qir.Module) {
	t.Helper()
	s, err := dev.BuildScheduleForPayload(mod)
	if err != nil {
		t.Fatal(err)
	}
	c.sched.word(uint64(s.Len()))
	for _, in := range s.Instructions() {
		c.sched.bytes([]byte(in.String()))
	}
}

func (c *exchangeCorpus) digests(name string, got map[string]string) {
	got[name+"/mlir"], got[name+"/qir"], got[name+"/schedule"] = c.mlir.sum(), c.qir.sum(), c.sched.sum()
}

// addCounts hashes a job's counts in ascending mask order.
func addCounts(t *testing.T, x *exchangeHash, dev *devices.SimDevice, mod *qir.Module, point map[string]float64) {
	t.Helper()
	job, err := dev.SubmitModule(mod, qdmi.JobOptions{Shots: 2000, Bindings: point})
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(t.Context()); st != qdmi.JobDone {
		_, err := job.Result()
		t.Fatalf("job status %v: %v", st, err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	masks := slices.Sorted(maps.Keys(res.Counts))
	x.word(uint64(len(masks)))
	for _, m := range masks {
		x.word(m)
		x.word(uint64(res.Counts[m]))
	}
}

func goldenDevice(t *testing.T, preset string) *devices.SimDevice {
	t.Helper()
	dev, err := devices.Preset(preset, "golden", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// frameTexts are MLIR programs that each use one frame-update mnemonic
// between two plays on q0's drive, so what the update does to the frame
// reaches the counts. Each literal operand is unique in the program, and
// the shift_phase and frame_change programs also hold what canonicalize
// merges or removes.
var frameTexts = []struct{ kind, ops string }{
	{"shift_phase", "pulse.shift_phase(%d0, 0.375)\n pulse.shift_phase(%d0, 1.5)\n pulse.shift_phase(%d0, 0)"},
	{"set_phase", "pulse.set_phase(%d0, 2.25)"},
	{"shift_frequency", "pulse.shift_frequency(%d0, 3e+06)"},
	{"set_frequency", "pulse.set_frequency(%d0, 4.902e+09)"},
	{"frame_change", "pulse.frame_change(%d0, freq = 4.899e+09, phase = 0.625)\n pulse.frame_change(%d0, freq = 4.901e+09, phase = -1.25)"},
}

func frameText(kind, ops string) string {
	half := strings.Repeat("(0.2, 0), ", 31) + "(0.2, 0)"
	return fmt.Sprintf(`module {
  pulse.def @half samples = [%s]
  pulse.sequence @%s(%%d0: !pulse.mixed_frame, %%m0: !pulse.mixed_frame) -> (i1) ports = ["q0-drive", "q0-readout"] {
    %%w0 = pulse.waveform_ref @half
    pulse.play(%%d0, %%w0)
    %s
    pulse.play(%%d0, %%w0)
    %%c0 = pulse.capture(%%m0, 96)
    pulse.return %%c0
  }
}
`, half, kind, ops)
}

// slotted returns mod with every f64 argument of its frame updates made a
// template slot v<i> (identity expression), and the literal each replaced.
func slotted(t *testing.T, mod *qir.Module) (*qir.Module, []float64) {
	t.Helper()
	frameCalls := []string{qir.IntrShiftPhase, qir.IntrSetPhase, qir.IntrShiftFrequency, qir.IntrSetFrequency, qir.IntrFrameChange}
	back, err := qir.ParseModule(string(mod.Emit()))
	if err != nil {
		t.Fatal(err)
	}
	var lits []float64
	for ci := range back.Body {
		c := &back.Body[ci]
		if !slices.Contains(frameCalls, c.Callee) {
			continue
		}
		for ai := range c.Args {
			if c.Args[ai].Kind == qir.ArgF64 {
				c.Args[ai].Expr = &qir.ParamExpr{Param: fmt.Sprintf("v%d", len(lits)), Scale: 1}
				lits = append(lits, c.Args[ai].F)
			}
		}
	}
	if len(lits) == 0 {
		t.Fatal("no frame update to slot")
	}
	// The template crosses the exchange as text like any module.
	tpl, err := qir.ParseModule(string(back.Emit()))
	if err != nil || !tpl.IsParametric() {
		t.Fatalf("slotted text does not parse to a template: %v", err)
	}
	return tpl, lits
}

// slotPoint is the i-th sweep point of a slotted template: each slot moves
// off its literal by i steps of 1 MHz (a frequency) or 0.3 rad (a phase).
func slotPoint(lits []float64, i int) map[string]float64 {
	point := map[string]float64{}
	for k, lit := range lits {
		step := 0.3
		if math.Abs(lit) > 1e3 {
			step = 1e6
		}
		point[fmt.Sprintf("v%d", k)] = lit + float64(i)*step
	}
	return point
}

// TestExchangeGoldenDigests pins, byte for byte, what each IR layer hands
// the next over a fixed corpus: the Bell and pulse kernels of the
// experiments on the sc, ion and atom presets; 64 seeded two-qubit gate
// lists of the benchmark's cold-compile shape (x, h, sx, rx, rz, cz); an
// MLIR program per frame-update mnemonic, compiled from text, with the
// counts of a seeded run; and each of those with its frame updates' values
// made template slots, as text, bound at three points (schedules and
// counts), plus a QPI template whose rz angle and frame change are slots.
// The digests were recorded before frame updates became one op per IR
// level; a refactor of the IR types must leave every one unmoved.
func TestExchangeGoldenDigests(t *testing.T) {
	got := map[string]string{}

	kernels := newExchangeCorpus()
	for _, preset := range []string{"sc", "ion", "atom"} {
		dev := goldenDevice(t, preset)
		for _, k := range []*qpi.Circuit{experiments.BellKernel(), experiments.PulseKernel(dev)} {
			res, err := compiler.Compile(k, dev)
			if err != nil {
				t.Fatal(err)
			}
			kernels.add(t, dev, res)
		}
	}
	kernels.digests("kernels", got)

	cold, dev := newExchangeCorpus(), goldenDevice(t, "sc")
	rng := rand.New(rand.NewSource(58))
	for i := range 64 {
		c := qpi.NewCircuit(fmt.Sprintf("cold_%d", i), 2, 2)
		for range 8 + rng.Intn(41) {
			q := rng.Intn(2)
			switch rng.Intn(6) {
			case 0:
				c.X(q)
			case 1:
				c.H(q)
			case 2:
				c.SX(q)
			case 3:
				c.RX(q, 2*math.Pi*rng.Float64())
			case 4:
				c.RZ(q, 2*math.Pi*rng.Float64())
			default:
				c.CZ(q, 1-q)
			}
		}
		if err := c.Measure(0, 0).Measure(1, 1).End(); err != nil {
			t.Fatal(err)
		}
		res, err := compiler.Compile(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		cold.add(t, dev, res)
	}
	cold.digests("cold", got)

	texts, slots := newExchangeCorpus(), newExchangeCorpus()
	textCounts, slotCounts := newExchangeHash(), newExchangeHash()
	for _, ft := range frameTexts {
		dev := goldenDevice(t, "sc")
		res, err := compiler.CompileMLIRText(frameText(ft.kind, ft.ops), dev)
		if err != nil {
			t.Fatalf("%s: %v", ft.kind, err)
		}
		texts.add(t, dev, res)
		addCounts(t, textCounts, dev, res.QIR, nil)

		tpl, lits := slotted(t, res.QIR)
		slots.qir.bytes(tpl.Emit())
		dev = goldenDevice(t, "sc")
		for i := range 3 {
			point := slotPoint(lits, i)
			bound, err := tpl.Bind(point)
			if err != nil {
				t.Fatal(err)
			}
			slots.schedule(t, dev, bound)
			addCounts(t, slotCounts, dev, tpl, point)
		}
	}
	texts.digests("mlir-text", got)
	got["mlir-text/counts"] = textCounts.sum()

	// A QPI template: the rz slot lowers to a shift_phase slot, the frame
	// change keeps both of its own.
	k := qpi.NewCircuit("frame_template", 1, 1).SX(0).RZP(0, qpi.Sym("theta")).
		FrameChangeP("q0-drive", qpi.SymAffine("df", 1, 4.9e9), qpi.SymAffine("phi", 2, 0.5)).
		SX(0).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	dev = goldenDevice(t, "sc")
	res, err := compiler.Compile(k, dev)
	if err != nil {
		t.Fatal(err)
	}
	slots.mlir.bytes([]byte(res.MLIR.Print()))
	slots.qir.bytes(res.QIR.Emit())
	for i := range 3 {
		point := map[string]float64{"theta": 0.4 * float64(i), "df": 1e6 * float64(i), "phi": -0.2 * float64(i)}
		bound, err := res.QIR.Bind(point)
		if err != nil {
			t.Fatal(err)
		}
		slots.schedule(t, dev, bound)
		addCounts(t, slotCounts, dev, res.QIR, point)
	}
	slots.digests("slots", got)
	got["slots/counts"] = slotCounts.sum()

	want := map[string]string{
		"cold/mlir":          "c7d3c51bd73d7715e8e40ec496abd720c379cb56fd4eaf36112d66ccce4f7da2",
		"cold/qir":           "69d9f3566cc47a4bc66808f715b5033d2669c939108470ae4d4a19d73dc08f23",
		"cold/schedule":      "1083df6639c9e74b76e1d592bdc787dec3607bc40ad2d953320df8e7f77713e5",
		"kernels/mlir":       "ca836d9c76039a99bb55110fc2a0045c1308639ede768114a6103bc1dec5dde6",
		"kernels/qir":        "18f01ead940857091218fed7a1d8f170623b0ef8490a2f0f37a73e7972c880de",
		"kernels/schedule":   "661a1689c10745c5f185b6bbbf5870fd2c9f06aa2d5139adcdebf3c96c8e9ef8",
		"mlir-text/counts":   "b158fc5007139ffa68852e2d3ae92488813d985a81cd82e2679bd5e0c05ad37a",
		"mlir-text/mlir":     "2d427d6c2de7adacfcc8cb2152d90c54a40639aa71439b6c712003f17ae392f1",
		"mlir-text/qir":      "8df2458adfb488f9539aad6ff3a7a4f9e9a87a121b6d29955acdaf1bf5a8b5f5",
		"mlir-text/schedule": "ede93382361f2033dacf8f03d54e5b4300714aa84a6a2390f3f959e951714000",
		"slots/counts":       "6e73a596961fa7554926930dda647edd6175aad4ffd995fa639254d1fa10d967",
		"slots/mlir":         "78c1679f43ac3737d5f44e80b0c6027bb045894b6649b7c94d91ab8f4212ed40",
		"slots/qir":          "d734a67bc7cb8f382898acacb8f61918e92125589126ac14b964965e1dc30f7e",
		"slots/schedule":     "1dc98ce3333a694ad178f6f6fc3ed76142113640079b751b070a1242f5b15639",
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
}
