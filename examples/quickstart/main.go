// Quickstart: build a Bell-pair kernel with the compiled QPI, run it
// through the whole stack (client → QRM scheduler → JIT compiler → QDMI →
// simulated superconducting QPU), and inspect the intermediate artifacts
// the paper's Listings 2 and 3 correspond to.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	mqsspulse "mqsspulse"
)

func main() {
	// A simulated 2-transmon device and the stack around it.
	dev, err := mqsspulse.NewSuperconductingDevice("demo-sc", 2, 42)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	// Build the kernel: gate-level, like the start of the paper's Listing 1.
	bell := mqsspulse.NewCircuit("bell", 2, 2).
		H(0).
		CX(0, 1).
		Measure(0, 0).
		Measure(1, 1)
	if err := bell.End(); err != nil {
		log.Fatal(err)
	}

	// Peek at the compilation pipeline: QPI → MLIR pulse dialect → QIR.
	res, err := mqsspulse.Compile(bell, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- MLIR pulse dialect (after gate→pulse lowering) ---")
	fmt.Println(firstLines(res.MLIR.Print(), 12))
	fmt.Println("--- QIR pulse-profile exchange payload ---")
	fmt.Println(firstLines(string(res.Payload), 14))

	// Execute through the client (compile happens again behind the cache).
	// One context bounds the whole trip — compile, queue, device execution;
	// a blown deadline cancels the job wherever it is.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	backend := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "demo-sc"}
	result, err := mqsspulse.Run(ctx, backend, bell, mqsspulse.WithShots(4096))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- measured histogram ---")
	fmt.Printf("schedule duration: %.4g µs\n", result.DurationSeconds*1e6)
	for mask := uint64(0); mask < 4; mask++ {
		fmt.Printf("  |%02b⟩: %5d (%.3f)\n", mask, result.Counts[mask], result.Probability(mask))
	}

	// Batch submission: a parameter sweep compiles concurrently and the
	// jobs pipeline through the device queue without draining in between.
	var sweep []*mqsspulse.Circuit
	for i := 0; i < 8; i++ {
		theta := float64(i) * 0.4
		k := mqsspulse.NewCircuit(fmt.Sprintf("sweep-%d", i), 1, 1).
			RX(0, theta).
			Measure(0, 0)
		if err := k.End(); err != nil {
			log.Fatal(err)
		}
		sweep = append(sweep, k)
	}
	batch, err := stack.Client.RunBatch(ctx, sweep, "demo-sc",
		mqsspulse.SubmitOptions{Shots: 512})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- RX(θ) sweep via RunBatch ---")
	for i, br := range batch {
		if br.Err != nil {
			fmt.Printf("  θ=%.1f: error: %v\n", float64(i)*0.4, br.Err)
			continue
		}
		fmt.Printf("  θ=%.1f: P(1)=%.3f\n", float64(i)*0.4, br.Result.Probability(1))
	}
}

func firstLines(s string, n int) string {
	count, idx := 0, 0
	for i, c := range s {
		if c == '\n' {
			count++
			if count == n {
				idx = i
				break
			}
		}
	}
	if idx == 0 {
		return s
	}
	return s[:idx] + "\n  ..."
}
