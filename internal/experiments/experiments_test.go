package experiments

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mqsspulse/internal/calib"
	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/testutil"
	"mqsspulse/internal/vqe"
)

func TestF1TopDownShape(t *testing.T) {
	tab, err := F1TopDown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "EXP-F1" || len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if r := tab.Render(); !strings.Contains(r, "frontend") || !strings.Contains(r, "EXP-F1") {
		t.Fatal("render incomplete")
	}
}

func TestF3QDMIShape(t *testing.T) {
	tab, err := F3QDMI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 3 devices × 5 queries.
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Every query should be sub-microsecond; the bound is 10 µs. Under
	// -race a mean query is instrumented map and lock traffic whose time
	// says nothing about the plain build, so there only the cells parse.
	race := testutil.RaceDetector()
	for _, row := range tab.Rows {
		ns, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad ns cell %q", row[3])
		}
		if !race && ns > 10000 {
			t.Fatalf("query %s took %v ns", row[1], ns)
		}
	}
}

func TestL1OverheadShape(t *testing.T) {
	tab, err := L1Overhead(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The reproduction claim: interpreted construct must cost more than
	// compiled construct.
	compiled, err := strconv.ParseFloat(tab.Rows[0][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := strconv.ParseFloat(tab.Rows[1][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if interpreted <= compiled {
		t.Fatalf("interpreted (%g µs) not slower than compiled (%g µs)", interpreted, compiled)
	}
}

func TestL2MLIRShape(t *testing.T) {
	tab, err := L2MLIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// parse + verify + 6 pipeline passes.
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
}

func TestL3QIRShape(t *testing.T) {
	tab, err := L3QIR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 devices × 3 steps
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The claim: one payload structure links on all three technologies —
	// sc, ion and atom parse to the same number of QIR calls and link to
	// the same number of schedule instructions.
	counts := map[string]map[string]bool{} // step → the details its rows report
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[1], "parse") || strings.HasPrefix(row[1], "link") {
			if counts[row[1]] == nil {
				counts[row[1]] = map[string]bool{}
			}
			counts[row[1]][row[3]] = true
		}
	}
	if len(counts) != 2 {
		t.Fatalf("steps %v, want a parse and a link row per device", counts)
	}
	for step, details := range counts {
		if len(details) != 1 || details["0 calls"] || details["0 schedule instr"] {
			t.Errorf("%s differs across technologies or is empty: %v", step, details)
		}
	}
}

func TestByIDResolvesAll(t *testing.T) {
	for _, e := range Experiments {
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("%s unresolvable", e.ID)
		}
		if _, ok := ByID(strings.ToLower(e.ID)); !ok {
			t.Errorf("%s (lowercase) unresolvable", e.ID)
		}
	}
	if _, ok := ByID("EXP-Z9"); ok {
		t.Error("ghost experiment resolvable")
	}
}

func TestKernelBuilders(t *testing.T) {
	b := BellKernel()
	if !b.Finished() || slices.ContainsFunc(b.Ops(), func(op qpi.Op) bool { return op.Kind == qpi.OpFrameChange }) {
		t.Fatal("bell kernel malformed")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{
		ID: "T", Title: "test",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxxxxx", "y"}},
		Notes:   []string{"a note"},
	}
	out := tab.Render()
	if !strings.Contains(out, "note: a note") {
		t.Fatal("notes missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatal("too few lines")
	}
}

// proxySigma bounds the standard deviation of F̂ = ½[p + (1−q)] measured
// with shots a job: p(1−p) is concave, so ¼[p(1−p) + q(1−q)]/shots is at
// most F̂(1−F̂)/(2·shots).
func proxySigma(f float64, shots int) float64 {
	return math.Sqrt(f * (1 - f) / float64(2*shots))
}

// binomialSigma is the standard deviation of a probability estimated from
// shots trials.
func binomialSigma(p float64, shots int) float64 {
	return math.Sqrt(p * (1 - p) / float64(shots))
}

// TestC2MismatchStudyOnDevice pins EXP-C2's claim on its 3 MHz, +5 % case:
// with stale calibration the open-loop GRAPE pulse loses fidelity on the
// device, and the hybrid wins it back — every device number from client
// jobs — and the installed winner beats the stale calibrated x through the
// gate path. It fails if the hybrid's SPSA is replaced by its seed (0
// iterations), or if staleCalibration drops its writes.
func TestC2MismatchStudyOnDevice(t *testing.T) {
	const shots, seed, xShots = 2000, 303, 32000
	ctx := context.Background()
	staleStack := func(detuneHz, ampErr float64) (*devices.SimDevice, *client.Client) {
		dev, err := devices.Superconducting("c2-sc", 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := stackOver(dev)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		staleCalibration(dev, detuneHz, ampErr)
		return dev, cl
	}
	study := func(dev *devices.SimDevice, cl *client.Client) *calib.MismatchStudyResult {
		res, err := calib.RunMismatchStudy(ctx, cl, dev, 0, shots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	xP1 := func(cl *client.Client) float64 {
		k := qpi.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		res, err := cl.RunCtx(ctx, k, "c2-sc", client.SubmitOptions{Shots: xShots})
		if err != nil {
			t.Fatal(err)
		}
		return res.Probability(1)
	}
	executed := func(cl *client.Client) int {
		return int(cl.Telemetry().Histograms["stage/device-execute"].Count)
	}

	zero := study(staleStack(0, 0))
	dev, cl := staleStack(3e6, 0.05)
	staleP1 := xP1(cl)
	epoch, before := dev.CalibrationEpoch(), executed(cl)
	res := study(dev, cl)
	if jobs := executed(cl) - before; jobs != 2*res.Evals {
		t.Errorf("the study ran %d device jobs for %d evaluations, want two each", jobs, res.Evals)
	}
	if got := dev.CalibrationEpoch(); got != epoch+1 {
		t.Errorf("installing the winner moved the epoch %d → %d, want one bump", epoch, got)
	}
	installedP1 := xP1(cl)

	if res.GrapeF < 0.999 {
		t.Errorf("GRAPE reached %.5f on its own model, want ≥ 0.999", res.GrapeF)
	}
	gap := func(what string, lo, hi, sigma float64) {
		if hi-lo < 4*sigma {
			t.Errorf("%s: %.4f − %.4f = %.4f, want ≥ 4σ = %.4f", what, hi, lo, hi-lo, 4*sigma)
		}
	}
	gap("open loop, zero mismatch over stale calibration", res.OpenLoopF, zero.OpenLoopF,
		math.Hypot(proxySigma(res.OpenLoopF, shots), proxySigma(zero.OpenLoopF, shots)))
	gap("stale calibration, hybrid over open loop", res.OpenLoopF, res.HybridF,
		math.Hypot(proxySigma(res.OpenLoopF, shots), proxySigma(res.HybridF, shots)))
	gap("gate-level X P(1), installed over stale", staleP1, installedP1,
		math.Hypot(binomialSigma(staleP1, xShots), binomialSigma(installedP1, xShots)))
	t.Logf("zero %+v\nstale %+v\nx stale %.4f installed %.4f", *zero, *res, staleP1, installedP1)
}

// TestC3PulseAnsatzShorterAtComparableEnergy pins EXP-C3's claim on its
// T1 = 80 µs device: ctrl-VQE's schedule is shorter than the gate ansatz's,
// and its energy is within 4√2·σ_E of the gate ansatz's, where σ_E bounds
// the shot noise of one energy estimate. It fails if the pulse ansatz
// drops its drive amplitudes (PulseAnsatz.Kernel binding amp0 and amp1 to
// 0): the state then stays |00⟩, at −1.06 Ha.
func TestC3PulseAnsatzShorterAtComparableEnergy(t *testing.T) {
	dev, err := devices.Superconducting("c3-good", 2, 401)
	if err != nil {
		t.Fatal(err)
	}
	h := vqe.H2Minimal()
	gate, pulse, err := c3Pair(context.Background(), dev, h)
	if err != nil {
		t.Fatal(err)
	}
	if pulse.ScheduleSeconds >= gate.ScheduleSeconds {
		t.Errorf("ctrl-VQE schedule %.3g s, gate ansatz %.3g s: want shorter", pulse.ScheduleSeconds, gate.ScheduleSeconds)
	}
	// A group's estimate sums ±1 outcomes weighted by its terms'
	// coefficients, so its variance is at most (Σ|c|)²/shots.
	groups, _ := h.GroupTerms()
	var variance float64
	for _, g := range groups {
		var sum float64
		for _, term := range g.Terms {
			sum += math.Abs(term.Coeff)
		}
		variance += sum * sum / c3Shots
	}
	if d, bound := math.Abs(pulse.Energy-gate.Energy), 4*math.Sqrt(2*variance); d > bound {
		t.Errorf("ctrl-VQE energy %.4f, gate ansatz %.4f: %.4f apart, want ≤ %.4f", pulse.Energy, gate.Energy, d, bound)
	}
}
