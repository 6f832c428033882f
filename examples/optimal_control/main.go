// Pulse engineering by optimal control (paper §2.1) on a simulated
// transmon, through the stack. The device's calibration is left stale as
// drift would leave it: its believed frequency 3 MHz low, its π amplitude
// 5 % hot. GRAPE designs a leakage-free X pulse against the model QDMI
// advertises — so against the stale calibration — and the open-loop pulse
// underperforms on the device. Closed-loop SPSA, every evaluation two client
// jobs, recovers it; the hybrid (SPSA seeded with the GRAPE pulse) is the
// strategy the paper highlights. The hybrid is installed as the device's
// "x", and a gate-level X job shows the gain.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	mqsspulse "mqsspulse"
)

func main() {
	dev, err := mqsspulse.NewSuperconductingDevice("oc-sc", 1, 2026)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	dev.SetCalibratedFrequency(0, dev.CalibratedFrequency(0)-3e6)
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*1.05)
	xP1 := func() float64 {
		k := mqsspulse.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
		if err := k.End(); err != nil {
			log.Fatal(err)
		}
		res, err := stack.Client.RunCtx(ctx, k, "oc-sc", mqsspulse.SubmitOptions{Shots: 32000})
		if err != nil {
			log.Fatal(err)
		}
		return res.Probability(1)
	}
	stale := xP1()

	res, err := mqsspulse.RunMismatchStudy(ctx, stack.Client, dev, 0, 2000, 2026)
	if err != nil {
		log.Fatal(err)
	}
	p := res.Problem
	fmt.Printf("GRAPE's model from QDMI: %d × %.0f ns slots, anharmonicity %.0f MHz, Rabi %.2f MHz\n",
		p.Slots, p.Dt*1e9, p.AnharmHz/1e6, p.RabiHz/1e6)
	fmt.Printf("  GRAPE iterations:          %d\n", res.GrapeIters)
	fmt.Printf("  fidelity on its own model: %.5f\n\n", res.GrapeF)

	fmt.Println("device fidelity proxy ½[P(1|pulse) + P(0|pulse²)], 2000 shots a job (higher is better):")
	fmt.Printf("  open-loop   %.4f   <- model mismatch bites\n", res.OpenLoopF)
	fmt.Printf("  closed-loop %.4f\n", res.ClosedLoopF)
	fmt.Printf("  hybrid      %.4f\n", res.HybridF)
	fmt.Printf("  (%d client jobs)\n\n", 2*res.Evals)

	fmt.Println("gate-level X(0); Measure, P(1) at 32000 shots:")
	fmt.Printf("  stale calibrated x  %.4f\n", stale)
	fmt.Printf("  installed hybrid x  %.4f\n", xP1())
}
