// Fleet scheduling walkthrough: a pool of interchangeable simulators
// behind the QRM, least-loaded placement of a job burst, admission-control
// backoff on ErrOverloaded, and the fleet statistics surface.
//
// Run with: go run ./examples/fleet
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"time"

	mqsspulse "mqsspulse"
)

func main() {
	// --- 1. Build a fleet: four interchangeable simulators. -----------
	//
	// Pool members must be interchangeable — same site count, a common
	// program format — which RegisterPool verifies through QDMI property
	// queries. Identical presets with different seeds model four QPUs of
	// the same generation.
	const n = 4
	devs := make([]mqsspulse.Device, n)
	names := make([]string, n)
	for i := range devs {
		dev, err := mqsspulse.NewSuperconductingDevice(fmt.Sprintf("sc-%d", i), 2, int64(40+i))
		if err != nil {
			log.Fatal(err)
		}
		// Model fixed control-electronics time per job so the queue has
		// something real to balance.
		dev.SetJobOverhead(3 * time.Millisecond)
		devs[i], names[i] = dev, dev.Name()
	}
	stack, err := mqsspulse.NewStack(devs...)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	qrm := stack.Client.QRM()
	if err := qrm.RegisterPool("sims", names...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered pool %q over %v\n", "sims", names)

	// --- 2. Submit a burst at the pool. -------------------------------
	//
	// Target the pool, not a device: the scheduler places each job on the
	// least-loaded member, and idle members steal queued work from busy
	// siblings. The same targeting works one level up through
	// qpi.Run(ctx, backend, k, mqsspulse.WithPool("sims")).
	bell := mqsspulse.NewCircuit("bell", 2, 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	if err := bell.End(); err != nil {
		log.Fatal(err)
	}
	kernels := make([]*mqsspulse.Circuit, 32)
	for i := range kernels {
		kernels[i] = bell
	}
	start := time.Now()
	results, err := stack.Client.RunBatch(context.Background(), kernels, "",
		mqsspulse.SubmitOptions{Shots: 256, Pool: "sims"})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			log.Fatalf("job %d: %v", i, r.Err)
		}
	}
	fmt.Printf("32-job burst over %d devices: %v\n", n, time.Since(start).Round(time.Millisecond))

	// --- 3. Overload backoff. -----------------------------------------
	//
	// Admission control bounds every target queue; submissions beyond the
	// bound fail fast with ErrOverloaded instead of piling up latency.
	// The canonical caller loop backs off and retries.
	qrm.SetMaxQueueDepth(8)
	submitted, rejections := 0, 0
	var tickets []*mqsspulse.Ticket
	for submitted < 64 {
		tk, err := stack.Client.SubmitCtx(context.Background(), bell, "",
			mqsspulse.SubmitOptions{Shots: 64, Pool: "sims"})
		if errors.Is(err, mqsspulse.ErrOverloaded) {
			rejections++
			time.Sleep(2 * time.Millisecond) // back off, then retry
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		tickets = append(tickets, tk)
		submitted++
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("64 jobs admitted through a depth-8 queue; %d overload rejections handled by backoff\n",
		rejections)

	// --- 4. Read the fleet stats. -------------------------------------
	//
	// Stats snapshots fleet-wide counters plus the per-device and per-pool
	// breakdown (also rendered by `go run ./cmd/qdmi-query -fleet 4`).
	st := qrm.Stats()
	devNames := make([]string, 0, len(st.Devices))
	for name := range st.Devices {
		devNames = append(devNames, name)
	}
	sort.Strings(devNames)
	fmt.Println("\nper-device placement:")
	for _, name := range devNames {
		d := st.Devices[name]
		fmt.Printf("  %-6s dispatched=%-3d stolen=%-2d depth=%d\n", name, d.Dispatched, d.Stolen, d.Depth)
	}
	fmt.Printf("totals: submitted=%d completed=%d rejected=%d steals=%d\n",
		st.Submitted, st.Completed, st.Rejected, st.Steals)
}
