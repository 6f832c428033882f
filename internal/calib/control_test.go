package calib

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestMismatchStudyModelFromQDMI(t *testing.T) {
	// The model is what QDMI advertises: the drive port's grid, the site's
	// anharmonicity, and the Rabi rate of the calibrated π pulse — 5 % hot
	// here, so the model's drive is 5 % weak.
	dev := newMiscalibratedSC(t, 0, 0.05)
	res, err := RunMismatchStudy(context.Background(), clientFor(t, dev), dev, 0, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Problem
	if p.Slots != 32 || p.Dt != 1e-9 || p.AnharmHz != -220e6 || !(math.Abs(p.RabiHz*1.05/40e6-1) <= 1e-12) {
		t.Fatalf("model %+v, want 32 slots of 1 ns, −220 MHz, 40 MHz/1.05", p)
	}
	if got, want := res.Evals, 1+2*(1+3*150+1); got != want {
		t.Fatalf("%d evaluations, want %d: open loop, then two 150-iteration SPSAs and their fresh values", got, want)
	}
}

func TestMismatchStudyReturnsFirstEvaluationError(t *testing.T) {
	dev := newMiscalibratedSC(t, 2e6, 0)
	cl := clientFor(t, dev)
	epoch := dev.CalibrationEpoch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunMismatchStudy(ctx, cl, dev, 0, 50, 1)
	if !errors.Is(err, context.Canceled) || res != nil || !strings.Contains(err.Error(), "evaluation 1:") {
		t.Fatalf("study on a cancelled ctx = %+v, %v; want evaluation 1's context.Canceled", res, err)
	}
	if n := cl.Telemetry().Histograms["stage/device-execute"].Count; n != 0 {
		t.Fatalf("%d jobs ran after the first failure", n)
	}
	if st := cl.CacheStats(); st.Misses != 0 {
		t.Fatalf("a failed study went on compiling: %+v", st)
	}
	if got := dev.CalibrationEpoch(); got != epoch {
		t.Fatalf("a failed study installed a pulse: epoch %d → %d", epoch, got)
	}
}
