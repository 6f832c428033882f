// Readout walkthrough: the pulse-level acquisition subsystem end to end.
//
//  1. Run a kernel with an explicit Acquire window at all three
//     measurement levels (discriminated counts, kerneled IQ points, raw
//     capture traces).
//  2. Calibrate readout: prep-0/prep-1 experiments train a linear
//     discriminator, whose held-out assignment fidelity is written back
//     into the device's calibration table and reported through QDMI.
//  3. Mitigate readout error on a deliberately biased device with
//     confusion-matrix inversion.
package main

import (
	"context"
	"fmt"
	"log"

	mqsspulse "mqsspulse"
)

func main() {
	dev, err := mqsspulse.NewSuperconductingDevice("ro-demo", 2, 42)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	backend := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "ro-demo"}
	ctx := context.Background()

	// The Acquire primitive opens an explicit capture window on a named
	// readout port — the program controls its own acquisition timing.
	var readoutPort string
	for _, p := range dev.Ports() {
		if p.Kind == mqsspulse.PortReadout && len(p.Sites) == 1 && p.Sites[0] == 0 {
			readoutPort = p.ID
		}
	}
	kernel := mqsspulse.NewCircuit("acquire-demo", 1, 1).
		X(0).
		Barrier().
		Acquire(readoutPort, 0, 96)
	if err := kernel.End(); err != nil {
		log.Fatal(err)
	}

	// Level 1: discriminated — classified counts, the default.
	res, err := mqsspulse.Run(ctx, backend, kernel, mqsspulse.WithShots(2048))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- discriminated (counts) ---")
	fmt.Printf("  P(1) after X: %.3f\n", res.Probability(1))

	// Level 2: kerneled — one integrated IQ point per shot.
	res, err = mqsspulse.Run(ctx, backend, kernel,
		mqsspulse.WithShots(512),
		mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- kerneled (IQ points) ---")
	for i := 0; i < 3; i++ {
		fmt.Printf("  shot %d: (I=%+.3f, Q=%+.3f)\n", i, res.IQ[i][0].I, res.IQ[i][0].Q)
	}

	// Shot-averaged kerneled data: one point per capture.
	avg, err := mqsspulse.Run(ctx, backend, kernel,
		mqsspulse.WithShots(512),
		mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled),
		mqsspulse.WithMeasReturn(mqsspulse.MeasReturnAverage))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  shot average: (I=%+.3f, Q=%+.3f)\n", avg.IQ[0][0].I, avg.IQ[0][0].Q)

	// Level 3: raw — the full per-sample capture trace of every shot.
	res, err = mqsspulse.Run(ctx, backend, kernel,
		mqsspulse.WithShots(8),
		mqsspulse.WithMeasLevel(mqsspulse.MeasRaw))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- raw (capture traces) ---")
	fmt.Printf("  %d shots × %d captures × %d samples\n",
		len(res.Raw), len(res.Raw[0]), len(res.Raw[0][0]))

	// Readout calibration: train a discriminator from prep experiments and
	// write the measured assignment fidelity into the calibration table.
	fmt.Println("--- readout calibration ---")
	for site := 0; site < 2; site++ {
		cal, err := mqsspulse.ReadoutCalibrate(ctx, stack.Client, dev, site, 4000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  site %d: %s discriminator, held-out fidelity %.4f (P01=%.4f, P10=%.4f)\n",
			site, cal.Discriminator.Kind(), cal.Fidelity, cal.Confusion.P01, cal.Confusion.P10)
		fmt.Printf("          serialized model: %s\n", cal.Model)
	}

	// Mitigation demo on a biased device: measure the assignment matrices,
	// then undo them on a |11⟩ preparation.
	biased := biasedDevice()
	bstack, err := mqsspulse.NewStack(biased)
	if err != nil {
		log.Fatal(err)
	}
	defer bstack.Close()
	bbackend := &mqsspulse.NativeAdapter{Client: bstack.Client, Target: biased.Name()}

	mit, err := mqsspulse.MeasureReadoutMitigator(ctx, bstack.Client, biased, []int{0, 1}, 6000)
	if err != nil {
		log.Fatal(err)
	}
	prep := mqsspulse.NewCircuit("prep11", 2, 2).X(0).X(1).Measure(0, 0).Measure(1, 1)
	if err := prep.End(); err != nil {
		log.Fatal(err)
	}
	raw, err := mqsspulse.Run(ctx, bbackend, prep, mqsspulse.WithShots(8192))
	if err != nil {
		log.Fatal(err)
	}
	probs, err := mit.Apply(raw.Counts, raw.Shots)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- readout-error mitigation (|11⟩ prep on biased device) ---")
	fmt.Printf("  raw       P(11) = %.4f\n", raw.Probability(0b11))
	fmt.Printf("  mitigated P(11) = %.4f\n", probs[0b11])
}

// biasedDevice builds a 2-site transmon with deliberately poor, uneven
// readout.
func biasedDevice() *mqsspulse.SimDevice {
	cfg := mqsspulse.DeviceConfig{
		Name:         "biased",
		Technology:   "superconducting",
		Version:      "demo",
		SampleRateHz: 1e9,
		Granularity:  8,
		MinSamples:   8,
		MaxSamples:   1 << 16,

		DriveRabiHz:     40e6,
		GateSamples:     32,
		ReadoutSamples:  96,
		ReadoutFidelity: 0.985,
		Seed:            7,
		MaxShots:        1 << 17,
	}
	for _, f := range []float64{0.90, 0.93} {
		cfg.Sites = append(cfg.Sites, mqsspulse.SiteConfig{
			Dim: 2, FreqHz: 5e9, T1Seconds: 80e-6, T2Seconds: 60e-6,
			ReadoutFidelity: f,
		})
	}
	dev, err := mqsspulse.NewDevice(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return dev
}
