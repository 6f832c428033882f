// qdmi-query inspects a device through the QDMI interface (paper Fig. 3):
// device, site, operation, and port properties, including the pulse-support
// extension this paper adds. With -fleet N it instead builds a pool of N
// identical simulators, dispatches a job burst through the QRM's fleet
// scheduler, and prints the per-device/per-pool statistics surface.
//
// Usage:
//
//	qdmi-query -device sc
//	qdmi-query -device ion -sites 3
//	qdmi-query -device sc -fleet 4 -jobs 64
//	qdmi-query -device sc -fleet 4 -jobs 64 -telemetry
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
)

// runFleet registers n preset devices as pool "fleet", pushes a burst of
// jobs through the scheduler, and prints the fleet statistics the QRM
// exposes: per-device queue depth, dispatch and steal counts, and per-pool
// queue state. With telemetry set it also renders the fleet
// metrics surface: every latency histogram (stage durations, per-device
// and per-pool queue-wait) and counter the burst accumulated.
func runFleet(preset string, sites, n, jobs int, telemetry bool) error {
	devs := make([]mqsspulse.Device, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		dev, err := devices.Preset(preset, fmt.Sprintf("%s-%d", preset, i), sites, int64(1+i))
		if err != nil {
			return err
		}
		// A small fixed per-job electronics overhead creates real queueing,
		// so the stats show placement at work.
		dev.SetJobOverhead(2 * time.Millisecond)
		devs[i], names[i] = dev, dev.Name()
	}
	stack, err := mqsspulse.NewStack(devs...)
	if err != nil {
		return err
	}
	defer stack.Close()
	if err := stack.Client.QRM().RegisterPool("fleet", names...); err != nil {
		return err
	}

	k := mqsspulse.NewCircuit("fleet-probe", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		return err
	}
	kernels := make([]*mqsspulse.Circuit, jobs)
	for i := range kernels {
		kernels[i] = k
	}
	start := time.Now()
	results, err := stack.Client.RunBatch(context.Background(), kernels, "",
		mqsspulse.SubmitOptions{Shots: 16, Pool: "fleet"})
	if err != nil {
		return err
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("job %d: %w", i, r.Err)
		}
	}
	elapsed := time.Since(start)

	st := stack.Client.QRM().Stats()
	fmt.Printf("=== fleet: %d × %s, %d jobs in %v ===\n", n, preset, jobs, elapsed.Round(time.Millisecond))
	fmt.Printf("  %-12s %8s %5s %10s %6s\n", "device", "inflight", "depth", "dispatched", "stolen")
	devNames := make([]string, 0, len(st.Devices))
	for name := range st.Devices {
		devNames = append(devNames, name)
	}
	sort.Strings(devNames)
	for _, name := range devNames {
		d := st.Devices[name]
		fmt.Printf("  %-12s %8d %5d %10d %6d\n", name, d.Inflight, d.Depth, d.Dispatched, d.Stolen)
	}
	fmt.Printf("\n  %-12s %5s  %s\n", "pool", "depth", "members")
	for name, p := range st.Pools {
		fmt.Printf("  %-12s %5d  %v\n", name, p.Depth, p.Members)
	}
	fmt.Printf("\n  totals: submitted=%d completed=%d failed=%d cancelled=%d rejected=%d steals=%d\n",
		st.Submitted, st.Completed, st.Failed, st.Cancelled, st.Rejected, st.Steals)
	cs := stack.Client.CacheStats()
	fmt.Printf("  lowering cache: hits=%d misses=%d binds=%d evictions=%d invalidations=%d entries=%d/%d (templates=%d)\n",
		cs.Hits, cs.Misses, cs.Binds, cs.Evictions, cs.Invalidations, cs.Entries, cs.Limit, cs.TemplateEntries)
	if telemetry {
		printTelemetry(stack.Telemetry())
	}
	return nil
}

// printTelemetry renders a fleet metrics snapshot: one row per latency
// histogram (count, mean, quantiles, max) and one per counter.
func printTelemetry(snap mqsspulse.TelemetrySnapshot) {
	fmt.Printf("\n=== telemetry: latency histograms ===\n")
	fmt.Printf("  %-28s %7s %10s %10s %10s %10s %10s\n",
		"histogram", "count", "mean", "p50", "p95", "p99", "max")
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Printf("  %-28s %7d %10v %10v %10v %10v %10v\n",
			name, h.Count,
			h.Mean.Round(time.Microsecond), h.P50.Round(time.Microsecond),
			h.P95.Round(time.Microsecond), h.P99.Round(time.Microsecond),
			h.Max.Round(time.Microsecond))
	}
	fmt.Printf("\n=== telemetry: counters ===\n")
	ctrs := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		ctrs = append(ctrs, name)
	}
	sort.Strings(ctrs)
	for _, name := range ctrs {
		fmt.Printf("  %-28s %d\n", name, snap.Counters[name])
	}
}

func main() {
	device := flag.String("device", "sc", "device preset: sc, ion, atom")
	sites := flag.Int("sites", 2, "device site count")
	fleet := flag.Int("fleet", 0, "build a pool of N devices and print fleet scheduler stats")
	jobs := flag.Int("jobs", 32, "jobs to dispatch in -fleet mode")
	telemetry := flag.Bool("telemetry", false,
		"also print the fleet telemetry surface (stage/queue-wait histograms, counters); implies -fleet 2")
	flag.Parse()

	if *telemetry && *fleet == 0 {
		*fleet = 2
	}
	if *fleet > 0 {
		if err := runFleet(*device, *sites, *fleet, *jobs, *telemetry); err != nil {
			fmt.Fprintln(os.Stderr, "qdmi-query:", err)
			os.Exit(1)
		}
		return
	}

	dev, err := devices.Preset(*device, *device, *sites, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qdmi-query:", err)
		os.Exit(1)
	}

	fmt.Println("=== device properties ===")
	devProps := []struct {
		name string
		p    qdmi.DeviceProperty
	}{
		{"name", qdmi.DevicePropName},
		{"version", qdmi.DevicePropVersion},
		{"technology", qdmi.DevicePropTechnology},
		{"num sites", qdmi.DevicePropNumSites},
		{"sample rate (Hz)", qdmi.DevicePropSampleRateHz},
		{"pulse support", qdmi.DevicePropPulseSupport},
		{"waveform kinds", qdmi.DevicePropWaveformKinds},
		{"native gates", qdmi.DevicePropNativeGates},
		{"program formats", qdmi.DevicePropProgramFormats},
		{"granularity", qdmi.DevicePropGranularity},
		{"min pulse samples", qdmi.DevicePropMinPulseSamples},
		{"max pulse samples", qdmi.DevicePropMaxPulseSamples},
		{"max shots", qdmi.DevicePropMaxShots},
		{"calibration epoch", qdmi.DevicePropCalibrationEpoch},
	}
	for _, dp := range devProps {
		v, err := dev.QueryDeviceProperty(dp.p)
		if err != nil {
			v = "(not supported)"
		}
		fmt.Printf("  %-20s %v\n", dp.name, v)
	}

	fmt.Println("\n=== site properties ===")
	for s := 0; s < dev.NumSites(); s++ {
		freq, _ := dev.QuerySiteProperty(s, qdmi.SitePropFrequencyHz)
		t1, _ := dev.QuerySiteProperty(s, qdmi.SitePropT1Seconds)
		t2, _ := dev.QuerySiteProperty(s, qdmi.SitePropT2Seconds)
		anh, _ := dev.QuerySiteProperty(s, qdmi.SitePropAnharmonicityHz)
		conn, _ := dev.QuerySiteProperty(s, qdmi.SitePropConnectivity)
		rf, _ := dev.QuerySiteProperty(s, qdmi.SitePropReadoutFidelity)
		fmt.Printf("  site %d: f=%.6g Hz  T1=%v s  T2=%v s  anharm=%v Hz  readout=%v  coupled=%v\n",
			s, freq, t1, t2, anh, rf, conn)
	}

	fmt.Println("\n=== operations ===")
	for _, op := range dev.Operations() {
		sitesArg := []int{0}
		arity, _ := dev.QueryOperationProperty(op, nil, qdmi.OpPropArity)
		if a, ok := arity.(int); ok && a == 2 {
			sitesArg = []int{0, 1}
		}
		durI, err := dev.QueryOperationProperty(op, sitesArg, qdmi.OpPropDurationSeconds)
		if err != nil { // e.g. a pair operation on a one-site device
			fmt.Printf("  %-8s arity=%v  sites %v: %v\n", op, arity, sitesArg, err)
			continue
		}
		fid, _ := dev.QueryOperationProperty(op, sitesArg, qdmi.OpPropFidelity)
		hasPulse, _ := dev.QueryOperationProperty(op, sitesArg, qdmi.OpPropHasPulseImpl)
		fmt.Printf("  %-8s arity=%v  duration=%v s  est. fidelity=%.6v  pulse impl=%v\n",
			op, arity, durI, fid, hasPulse)
	}

	fmt.Println("\n=== ports (pulse extension) ===")
	for _, p := range dev.Ports() {
		kind, _ := dev.QueryPortProperty(p.ID, qdmi.PortPropKind)
		rate, _ := dev.QueryPortProperty(p.ID, qdmi.PortPropSampleRateHz)
		gran, _ := dev.QueryPortProperty(p.ID, qdmi.PortPropGranularity)
		maxA, _ := dev.QueryPortProperty(p.ID, qdmi.PortPropMaxAmplitude)
		fmt.Printf("  %-16s kind=%-8v sites=%v  rate=%.4g Hz  granularity=%v  max amp=%v\n",
			p.ID, kind, p.Sites, rate, gran, maxA)
	}
}
