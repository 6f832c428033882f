package simq

import (
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/readout"
)

func TestCloudSeparationMatchesFidelity(t *testing.T) {
	// The midpoint threshold on two unit-σ clouds at ±d/2 misassigns with
	// ε = ½·erfc(d/(2√2)); cloudSeparation inverts that.
	for _, f := range []float64{0.9, 0.95, 0.985, 0.996} {
		d := cloudSeparation(f)
		eps := 0.5 * math.Erfc(d/(2*math.Sqrt2))
		if !(math.Abs(eps-(1-f)) <= 1e-9) {
			t.Fatalf("fidelity %g: separation %g reproduces ε=%g, want %g", f, d, eps, 1-f)
		}
	}
	if d := cloudSeparation(1.0); d < 10 {
		t.Fatalf("perfect fidelity should give effectively disjoint clouds, d=%g", d)
	}
	if d := cloudSeparation(0.5); d != 0 {
		t.Fatalf("coin-flip fidelity should give overlapping clouds, d=%g", d)
	}
}

func TestSynthesizeShotStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := &ReadoutModel{
		Level: readout.LevelKerneled,
		Sites: map[int]ReadoutSite{0: {Fidelity: 0.95}},
	}
	shots := 40000
	miss0, miss1 := 0, 0
	for k := 0; k < shots; k++ {
		if rec := m.synthesizeShot(rng, 0, 0, 96, 96e-9, false); rec.bit == 1 {
			miss0++
		}
		if rec := m.synthesizeShot(rng, 0, 1, 96, 96e-9, false); rec.bit == 0 {
			miss1++
		}
	}
	e0, e1 := float64(miss0)/float64(shots), float64(miss1)/float64(shots)
	if !(math.Abs(e0-0.05) <= 0.005 && math.Abs(e1-0.05) <= 0.005) {
		t.Fatalf("assignment errors e0=%g e1=%g, want ≈0.05", e0, e1)
	}
}

func TestSynthesizeShotRawTraceConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := &ReadoutModel{
		Level: readout.LevelRaw,
		Sites: map[int]ReadoutSite{2: {Fidelity: 0.99}},
	}
	rec := m.synthesizeShot(rng, 2, 1, 64, 64e-9, true)
	if len(rec.trace) != 64 {
		t.Fatalf("trace length %d, want 64", len(rec.trace))
	}
	// The kerneled point must be the boxcar integral of the trace.
	p := (readout.Boxcar{}).Integrate(rec.trace)
	if !(math.Abs(p.I-rec.point.I) <= 1e-9 && math.Abs(p.Q-rec.point.Q) <= 1e-9) {
		t.Fatalf("kerneled point %+v != boxcar(trace) %+v", rec.point, p)
	}
}

func TestSynthesizeShotT1DecaySmearsOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Window comparable to T1: a large fraction of |1⟩ shots decay
	// mid-capture and should integrate strictly below the |1⟩ centroid.
	m := &ReadoutModel{
		Level: readout.LevelKerneled,
		Sites: map[int]ReadoutSite{0: {Fidelity: 0.9999, T1Seconds: 100e-9}},
	}
	shots := 20000
	var mean1 float64
	misread := 0
	for k := 0; k < shots; k++ {
		rec := m.synthesizeShot(rng, 0, 1, 96, 100e-9, false)
		mean1 += rec.point.I
		if rec.bit == 0 {
			misread++
		}
	}
	mean1 /= float64(shots)
	d := cloudSeparation(0.9999)
	if !(mean1 <= 0.8*d/2) {
		t.Fatalf("T1 decay should pull the |1⟩ mean below its centroid: mean %g vs centroid %g", mean1, d/2)
	}
	// Decay-induced misassignment must dominate the (negligible) overlap
	// error: P(decay in window) = 1−e^{−1} ≈ 0.63, roughly half of which
	// lands on the |0⟩ side.
	frac := float64(misread) / float64(shots)
	if frac < 0.1 {
		t.Fatalf("expected substantial decay-induced misassignment, got %g", frac)
	}
}
