// Remote submission (paper Fig. 2): an HPC login node compiles a kernel
// locally with the JIT pipeline, then runs it on an MQSS client colocated
// with the QPU — the portable exchange format crossing a machine boundary.
// The QIR pulse-profile text crosses once per connection (the adapter
// registers it under an ID that covers its calibration epoch); each job
// after that is a small frame naming the ID and the job options.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	mqsspulse "mqsspulse"
)

func main() {
	// "QPU side": device + client + TCP server.
	dev, err := mqsspulse.NewSuperconductingDevice("hpc-sc", 2, 33)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0",
		mqsspulse.WithServerMaxJobTime(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("MQSS endpoint listening on %s\n", srv.Addr())

	// "Login-node side": build + compile, then run the payload remotely.
	ghz := mqsspulse.NewCircuit("bell_plus_phase", 2, 2).
		H(0).
		CX(0, 1).
		RZ(0, 0.7). // a virtual-Z that the canonicalizer folds
		RZ(0, -0.7).
		Measure(0, 0).
		Measure(1, 1)
	if err := ghz.End(); err != nil {
		log.Fatal(err)
	}
	res, err := mqsspulse.Compile(ghz, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled payload: %d bytes of QIR (%s profile)\n",
		len(res.Payload), res.QIR.Profile)

	// The login node bounds the whole remote round-trip with one context:
	// the dial, the wire exchange, and — because the adapter ships the
	// remaining budget as the job timeout — the device execution itself.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	remote, err := mqsspulse.NewRemoteAdapterCtx(ctx, srv.Addr(),
		mqsspulse.WithDialTimeout(5*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	out, err := remote.SubmitPayloadCtx(ctx, "hpc-sc", res.Payload, mqsspulse.FormatQIRPulse,
		mqsspulse.SubmitOptions{Shots: 4096})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote execution: %d shots, schedule %.4g µs\n",
		out.Shots, out.DurationSeconds*1e6)
	for mask := uint64(0); mask < 4; mask++ {
		fmt.Printf("  |%02b⟩: %5d (%.3f)\n", mask, out.Counts[mask], out.Probability(mask))
	}
}
