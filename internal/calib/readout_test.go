package calib

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/readout"
)

func TestReadoutCalibrateTrainsToConfiguredFidelity(t *testing.T) {
	dev, err := devices.Superconducting("ro-cal", 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	site := 0
	want, err := dev.QuerySiteProperty(site, qdmi.SitePropReadoutFidelity)
	if err != nil {
		t.Fatal(err)
	}
	configured := want.(float64)

	res, err := ReadoutCalibrate(context.Background(), clientFor(t, dev), dev, site, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// The trained discriminator must reach the configured assignment
	// fidelity on held-out shots (up to shot noise and the x-pulse/T1
	// contribution to the prep-1 class).
	if res.Fidelity < configured-0.01 {
		t.Fatalf("held-out fidelity %g below configured %g", res.Fidelity, configured)
	}
	if res.Fidelity > 1 || res.Fidelity < 0.5 {
		t.Fatalf("implausible fidelity %g", res.Fidelity)
	}
	if math.Abs(res.Fidelity-configured) > 0.02 {
		t.Fatalf("measured fidelity %g far from configured %g", res.Fidelity, configured)
	}
	// Writeback: the QDMI site query now reports the measured value.
	got, err := dev.QuerySiteProperty(site, qdmi.SitePropReadoutFidelity)
	if err != nil {
		t.Fatal(err)
	}
	if got.(float64) != res.Fidelity {
		t.Fatalf("calibration table not updated: query %v, measured %g", got, res.Fidelity)
	}
	// The serialized model must decode to an equivalent discriminator.
	back, err := readout.DecodeDiscriminator(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []readout.IQ{{I: -3}, {I: 3}, {I: 0.2, Q: -1}} {
		if back.Discriminate(p) != res.Discriminator.Discriminate(p) {
			t.Fatalf("decoded model disagrees at %+v", p)
		}
	}
}

func TestReadoutCalibratePerSiteSpread(t *testing.T) {
	// Sites with different configured fidelities must calibrate to
	// correspondingly different measured values.
	cfgDev, err := devices.New(biasedConfig("ro-spread", []float64{0.99, 0.86}, 17))
	if err != nil {
		t.Fatal(err)
	}
	cl := clientFor(t, cfgDev)
	r0, err := ReadoutCalibrate(context.Background(), cl, cfgDev, 0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ReadoutCalibrate(context.Background(), cl, cfgDev, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Fidelity <= r1.Fidelity {
		t.Fatalf("site 0 (f=0.99) should beat site 1 (f=0.86): %g vs %g", r0.Fidelity, r1.Fidelity)
	}
	if math.Abs(r1.Fidelity-0.86) > 0.03 {
		t.Fatalf("site 1 measured %g, configured 0.86", r1.Fidelity)
	}
}

func TestReadoutMitigatorReducesReadoutError(t *testing.T) {
	// Biased-fidelity preset: strong assignment error on both sites.
	dev, err := devices.New(biasedConfig("ro-mit", []float64{0.90, 0.88}, 23))
	if err != nil {
		t.Fatal(err)
	}
	cl := clientFor(t, dev)
	mit, err := ReadoutMitigator(context.Background(), cl, dev, []int{0, 1}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare |11⟩ and measure through the noisy chain.
	counts, shots, err := runPrepBoth(cl, dev)
	if err != nil {
		t.Fatal(err)
	}
	rawP11 := float64(counts[0b11]) / float64(shots)
	probs, err := mit.Apply(counts, shots)
	if err != nil {
		t.Fatal(err)
	}
	mitP11 := probs[0b11]
	// Ideal is P(11) = 1 up to gate error; mitigation must move the
	// estimate substantially toward it.
	if mitP11 <= rawP11 {
		t.Fatalf("mitigation did not improve P(11): raw %g, mitigated %g", rawP11, mitP11)
	}
	if 1-mitP11 > (1-rawP11)/2 {
		t.Fatalf("mitigated readout error %g not well below raw %g", 1-mitP11, 1-rawP11)
	}
}

// biasedConfig builds a small transmon-like device with per-site readout
// fidelities.
func biasedConfig(name string, fids []float64, seed int64) devices.Config {
	cfg := devices.Config{
		Name:         name,
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
		Seed:            seed,
		MaxShots:        1 << 17,
	}
	for _, f := range fids {
		cfg.Sites = append(cfg.Sites, devices.SiteConfig{
			Dim: 2, FreqHz: 5e9, T1Seconds: 80e-6, T2Seconds: 60e-6,
			ReadoutFidelity: f,
		})
	}
	return cfg
}

// runPrepBoth plays an x pulse on every site and measures both, returning
// the discriminated counts (bit i = site i).
func runPrepBoth(cl *client.Client, dev qdmi.Device) (map[uint64]int, int, error) {
	c := qpi.NewCircuit("prep_both", 2, 2)
	for site := range 2 {
		b, err := newBench(cl, dev, site, 8000)
		if err != nil {
			return nil, 0, err
		}
		name := fmt.Sprintf("x%d", site)
		c.Waveform(name, b.env["x"]).PlayWaveform(b.drive.ID, name)
	}
	if err := c.Measure(0, 0).Measure(1, 1).End(); err != nil {
		return nil, 0, err
	}
	res, err := cl.RunCtx(context.Background(), c, dev.Name(), client.SubmitOptions{Shots: 8000})
	if err != nil {
		return nil, 0, err
	}
	return res.Counts, res.Shots, nil
}
