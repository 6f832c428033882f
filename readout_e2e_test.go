package mqsspulse_test

import (
	"context"
	"math"
	"testing"

	mqsspulse "mqsspulse"
)

// readoutPortOf finds the readout channel of a site by port inspection.
func readoutPortOf(t *testing.T, dev mqsspulse.Device, site int) string {
	t.Helper()
	for _, p := range dev.Ports() {
		if p.Kind == mqsspulse.PortReadout && len(p.Sites) == 1 && p.Sites[0] == site {
			return p.ID
		}
	}
	t.Fatalf("device has no readout port for site %d", site)
	return ""
}

// acquireKernel builds the acceptance kernel: excite qubit 0, then open an
// explicit acquisition window on its readout port.
func acquireKernel(t *testing.T, dev mqsspulse.Device, window int64) *mqsspulse.Circuit {
	t.Helper()
	c := mqsspulse.NewCircuit("acquire-e2e", 1, 1)
	c.X(0).Barrier().Acquire(readoutPortOf(t, dev, 0), 0, window)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAcquireEndToEndAllMeasLevels is the tentpole acceptance test: a
// kernel with an Acquire op runs through qpi.Run → client → QRM → QDMI →
// SimDevice at all three measurement levels.
func TestAcquireEndToEndAllMeasLevels(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("acq-e2e", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	backend := &mqsspulse.NativeAdapter{Client: stack.Client, Target: dev.Name()}
	ctx := context.Background()
	const window = 96
	const shots = 600

	// Discriminated: plain counts, X ⇒ P(1) ≈ readout fidelity.
	res, err := mqsspulse.Run(ctx, backend, acquireKernel(t, dev, window),
		mqsspulse.WithShots(shots))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasLevel != mqsspulse.MeasDiscriminated || len(res.IQ) != 0 {
		t.Fatalf("discriminated run returned IQ data: level %v, %d rows", res.MeasLevel, len(res.IQ))
	}
	if p := res.Probability(1); p < 0.9 {
		t.Fatalf("P(1) = %g after X, want ≈ readout fidelity", p)
	}

	// Kerneled: one IQ point per shot, clustered on the |1⟩ side.
	res, err = mqsspulse.Run(ctx, backend, acquireKernel(t, dev, window),
		mqsspulse.WithShots(shots), mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasLevel != mqsspulse.MeasKerneled {
		t.Fatalf("meas level %v, want kerneled", res.MeasLevel)
	}
	if len(res.IQ) != shots || len(res.Bits) != 1 {
		t.Fatalf("kerneled shape: %d rows × %d bits", len(res.IQ), len(res.Bits))
	}
	onSide := 0
	for _, row := range res.IQ {
		if row[0].I > 0 {
			onSide++
		}
	}
	if frac := float64(onSide) / float64(shots); frac < 0.9 {
		t.Fatalf("only %g of kerneled points on the |1⟩ side", frac)
	}
	if len(res.Raw) != 0 {
		t.Fatal("kerneled run returned raw traces")
	}

	// Raw: full traces of the requested window length, consistent with the
	// kerneled points under boxcar integration.
	rawShots := 50
	res, err = mqsspulse.Run(ctx, backend, acquireKernel(t, dev, window),
		mqsspulse.WithShots(rawShots), mqsspulse.WithMeasLevel(mqsspulse.MeasRaw))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasLevel != mqsspulse.MeasRaw || len(res.Raw) != rawShots {
		t.Fatalf("raw run shape: level %v, %d trace rows", res.MeasLevel, len(res.Raw))
	}
	for k, shot := range res.Raw {
		if len(shot) != 1 || len(shot[0]) != window {
			t.Fatalf("shot %d: %d traces × %d samples, want 1 × %d", k, len(shot), len(shot[0]), window)
		}
		var acc complex128
		for _, v := range shot[0] {
			acc += v
		}
		acc /= complex(float64(window), 0)
		if !(math.Abs(real(acc)-res.IQ[k][0].I) <= 1e-9) || !(math.Abs(imag(acc)-res.IQ[k][0].Q) <= 1e-9) {
			t.Fatalf("shot %d: boxcar(trace) != kerneled point", k)
		}
	}

	// Averaged return: a single IQ row near the |1⟩ centroid.
	res, err = mqsspulse.Run(ctx, backend, acquireKernel(t, dev, window),
		mqsspulse.WithShots(shots), mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled),
		mqsspulse.WithMeasReturn(mqsspulse.MeasReturnAverage))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IQ) != 1 {
		t.Fatalf("averaged return gave %d rows", len(res.IQ))
	}
	if res.IQ[0][0].I <= 0 {
		t.Fatalf("averaged |1⟩ point on wrong side: %+v", res.IQ[0][0])
	}
}

// TestReadoutCalibrationAndDiscriminatorFidelity covers the calibration
// half of the acceptance criteria: the calib routine trains a
// discriminator whose held-out fidelity reaches the configured per-qubit
// assignment fidelity, and writes it back to the calibration table.
func TestReadoutCalibrationAndDiscriminatorFidelity(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("cal-e2e", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	for site := 0; site < 2; site++ {
		configured := dev.CalibratedReadoutFidelity(site)
		res, err := mqsspulse.ReadoutCalibrate(context.Background(), stack.Client, dev, site, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fidelity < configured-0.01 {
			t.Fatalf("site %d: held-out fidelity %g below configured %g", site, res.Fidelity, configured)
		}
		if dev.CalibratedReadoutFidelity(site) != res.Fidelity {
			t.Fatalf("site %d: calibration table not updated", site)
		}
		// The serialized model round-trips into a working discriminator.
		back, err := mqsspulse.DecodeDiscriminator(res.Model)
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind() != res.Discriminator.Kind() {
			t.Fatalf("site %d: model kind changed in serialization", site)
		}
	}
}

// TestMitigationOnBiasedPreset covers the mitigation half of the
// acceptance criteria on a deliberately biased-fidelity device.
func TestMitigationOnBiasedPreset(t *testing.T) {
	cfg := mqsspulse.DeviceConfig{
		Name:         "biased",
		Technology:   "superconducting",
		Version:      "test",
		SampleRateHz: 1e9,
		Granularity:  8,
		MinSamples:   8,
		MaxSamples:   1 << 16,

		DriveRabiHz:     40e6,
		GateSamples:     32,
		ReadoutSamples:  96,
		ReadoutFidelity: 0.985,
		Seed:            31,
		MaxShots:        1 << 17,
	}
	cfg.Sites = append(cfg.Sites,
		siteWithFidelity(0.90), siteWithFidelity(0.93))
	dev, err := mqsspulse.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	mit, err := mqsspulse.MeasureReadoutMitigator(context.Background(), stack.Client, dev, []int{0, 1}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	backend := &mqsspulse.NativeAdapter{Client: stack.Client, Target: dev.Name()}

	c := mqsspulse.NewCircuit("x-both", 2, 2)
	c.X(0).X(1).Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	shots := 8000
	res, err := mqsspulse.Run(context.Background(), backend, c, mqsspulse.WithShots(shots))
	if err != nil {
		t.Fatal(err)
	}
	rawP11 := res.Probability(0b11)
	probs, err := mit.Apply(res.Counts, res.Shots)
	if err != nil {
		t.Fatal(err)
	}
	if probs[0b11] <= rawP11 {
		t.Fatalf("mitigation did not raise P(11): raw %g, mitigated %g", rawP11, probs[0b11])
	}
	if 1-probs[0b11] > (1-rawP11)/2 {
		t.Fatalf("mitigated error %g not well below raw %g", 1-probs[0b11], 1-rawP11)
	}
}

func siteWithFidelity(f float64) mqsspulse.SiteConfig {
	return mqsspulse.SiteConfig{
		Dim: 2, FreqHz: 5e9, T1Seconds: 80e-6, T2Seconds: 60e-6,
		ReadoutFidelity: f,
	}
}

// TestMeasLevelOverRemoteWire checks the acquisition options and IQ data
// cross the TCP submission path.
func TestMeasLevelOverRemoteWire(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("remote-acq", 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := mqsspulse.NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	kernel := acquireKernel(t, dev, 96)
	payload, format, err := stack.Client.Compile(kernel, dev.Name())
	if err != nil {
		t.Fatal(err)
	}
	shots := 200
	res, err := remote.SubmitPayloadCtx(context.Background(), dev.Name(), payload, format,
		mqsspulse.SubmitOptions{Shots: shots, MeasLevel: mqsspulse.MeasKerneled})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasLevel != mqsspulse.MeasKerneled {
		t.Fatalf("remote meas level %v", res.MeasLevel)
	}
	if len(res.IQ) != shots || len(res.Bits) != 1 {
		t.Fatalf("remote IQ shape: %d rows, %d bits", len(res.IQ), len(res.Bits))
	}
	onSide := 0
	for _, row := range res.IQ {
		if row[0].I > 0 {
			onSide++
		}
	}
	if frac := float64(onSide) / float64(shots); frac < 0.85 {
		t.Fatalf("remote kerneled points misplaced: %g on |1⟩ side", frac)
	}
}
