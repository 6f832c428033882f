// Parametric pulse templates with deferred binding: a Rabi amplitude
// sweep that compiles its kernel ONCE and binds every sweep point with
// pure arithmetic. The walkthrough covers the full contract:
//
//  1. a symbolic kernel (RXP) wrapped in a Template with a declared,
//     legality-proven parameter range;
//  2. a 64-point sweep through Stack.RunSweep — the lowering cache
//     records 1 compile miss and 63 binds, and the fitted π-amplitude
//     angle falls out of the measured Rabi oscillation;
//  3. bind-time validation — NaN and out-of-range points fail with the
//     typed ErrBadParam before touching the scheduler;
//  4. calibration safety — a recalibration between points invalidates
//     the compiled template and the sweep transparently re-lowers.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"

	mqsspulse "mqsspulse"
)

func main() {
	dev, err := mqsspulse.NewSuperconductingDevice("sweep-sc", 1, 42)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	ctx := context.Background()

	// --- 1. The template: one symbolic kernel, a declared range. ---
	rabi := mqsspulse.NewCircuit("rabi", 1, 1).
		RXP(0, mqsspulse.Sym("theta")).
		Measure(0, 0)
	if err := rabi.End(); err != nil {
		log.Fatal(err)
	}
	// The range is proven legal at construction: rx angles must stay in
	// [−π, π], so e.g. Max: 4 would be rejected here — once — instead of
	// failing point by point.
	tpl, err := mqsspulse.NewTemplate(rabi,
		mqsspulse.TemplateParam{Name: "theta", Min: 0.01, Max: math.Pi})
	if err != nil {
		log.Fatal(err)
	}

	// --- 2. The sweep: 1 compile, 63 binds. ---
	const points = 64
	bindings := make([]mqsspulse.Bindings, points)
	for i := range bindings {
		bindings[i] = mqsspulse.Bindings{"theta": math.Pi * float64(i+1) / points}
	}
	results, err := stack.RunSweep(ctx, tpl, "sweep-sc", bindings,
		mqsspulse.SubmitOptions{Shots: 256})
	if err != nil {
		log.Fatal(err)
	}
	best, bestP := 0.0, -1.0
	for i, r := range results {
		if r.Err != nil {
			log.Fatalf("point %d: %v", i, r.Err)
		}
		if p := r.Result.Probability(1); p > bestP {
			best, bestP = bindings[i]["theta"], p
		}
	}
	st := stack.Client.CacheStats()
	fmt.Printf("swept %d points: misses=%d binds=%d (template entries: %d)\n",
		points, st.Misses, st.Binds, st.TemplateEntries)
	fmt.Printf("π-pulse found near theta=%.3f with P(1)=%.3f\n", best, bestP)

	// --- 3. Bad points fail typed, before the scheduler. ---
	bad, err := stack.RunSweep(ctx, tpl, "sweep-sc",
		[]mqsspulse.Bindings{{"theta": math.NaN()}, {"theta": 9}},
		mqsspulse.SubmitOptions{Shots: 16})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range bad {
		if !errors.Is(r.Err, mqsspulse.ErrBadParam) {
			log.Fatalf("bad point %d slipped through: %v", i, r.Err)
		}
	}
	fmt.Println("NaN and out-of-range points rejected with ErrBadParam")

	// --- 4. Recalibration invalidates the compiled template. ---
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.97)
	if _, err := stack.RunSweep(ctx, tpl, "sweep-sc", bindings[:4],
		mqsspulse.SubmitOptions{Shots: 64}); err != nil {
		log.Fatal(err)
	}
	st = stack.Client.CacheStats()
	fmt.Printf("after recalibration: invalidations=%d misses=%d (re-lowered at the new epoch)\n",
		st.Invalidations, st.Misses)
}
