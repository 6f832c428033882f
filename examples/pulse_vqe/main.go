// Pulse-level VQE (ctrl-VQE): the paper's Listing 1 use case end to end.
// The variational kernel drives parameterized waveforms directly — Gaussian
// drive pulses on each qubit, virtual frame changes, and an entangling
// coupler pulse — and a classical Nelder-Mead optimizer closes the loop, on
// the H₂ molecule benchmark. The gate-level hardware-efficient ansatz runs
// for comparison; ctrl-VQE's schedule is several times shorter.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	mqsspulse "mqsspulse"
)

func main() {
	dev, err := mqsspulse.NewSuperconductingDevice("vqe-sc", 2, 11)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	h := mqsspulse.H2Hamiltonian()
	exact, err := h.GroundEnergy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("H2 (parity-mapped, 2 qubits): exact ground energy %.4f Ha\n\n", exact)

	// --- ctrl-VQE: parameterized pulses (Listing 1) ---
	pulseAnsatz, err := mqsspulse.NewPulseAnsatz(dev, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running ctrl-VQE (pulse ansatz: 2 drive amps, 2 frame phases, 1 coupler amp)...")
	pres, err := mqsspulse.RunVQE(context.Background(), stack.Client, dev.Name(), h, pulseAnsatz,
		[]float64{0.9, 0.15, 0.0, 0.0, 0.1},
		mqsspulse.VQEOptions{Shots: 800, MaxEvals: 80, InitStep: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  energy      %.4f Ha (error %+.4f)\n", pres.Energy, pres.Energy-exact)
	fmt.Printf("  schedule    %.3g µs\n", pres.ScheduleSeconds*1e6)
	fmt.Printf("  evaluations %d\n\n", pres.Evals)

	// --- gate-level VQE for comparison ---
	gateAnsatz := &mqsspulse.GateAnsatz{Qubits: 2, Layers: 1}
	fmt.Println("running gate-level VQE (RY layers + CZ entangler)...")
	gres, err := mqsspulse.RunVQE(context.Background(), stack.Client, dev.Name(), h, gateAnsatz,
		[]float64{math.Pi - 0.2, 0.2, -0.2, 0.2},
		mqsspulse.VQEOptions{Shots: 800, MaxEvals: 80, InitStep: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  energy      %.4f Ha (error %+.4f)\n", gres.Energy, gres.Energy-exact)
	fmt.Printf("  schedule    %.3g µs\n", gres.ScheduleSeconds*1e6)
	fmt.Printf("  evaluations %d\n\n", gres.Evals)

	fmt.Printf("schedule-duration ratio (gate/pulse): %.2fx\n",
		gres.ScheduleSeconds/pres.ScheduleSeconds)
}
