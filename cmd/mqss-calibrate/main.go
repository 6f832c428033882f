// mqss-calibrate demonstrates the automated-calibration use case (paper
// §2.1): it drifts a simulated device forward in time, shows the benchmark
// degradation, runs Ramsey + Rabi calibration as pulse-level jobs through
// the stack (client → QRM → QDMI), and shows the recovery.
//
// Usage:
//
//	mqss-calibrate -device sc -hours 6
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mqsspulse/internal/calib"
	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
)

func main() {
	device := flag.String("device", "sc", "device preset: sc, ion, atom")
	hours := flag.Float64("hours", 6, "simulated drift time before calibrating")
	seed := flag.Int64("seed", 7, "drift random seed")
	flag.Parse()

	var dev *devices.SimDevice
	var err error
	var tau float64
	switch *device {
	case "sc":
		dev, err = devices.Superconducting("sc", 1, *seed)
		tau = 3e-6
	case "ion":
		dev, err = devices.TrappedIon("ion", 1, *seed)
		tau = 100e-6
	case "atom":
		dev, err = devices.NeutralAtom("atom", 1, *seed)
		tau = 20e-6
	default:
		err = fmt.Errorf("unknown device %q", *device)
	}
	if err != nil {
		fatal(err)
	}
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(dev); err != nil {
		fatal(err)
	}
	cl := client.New(drv.OpenSession())
	defer cl.Close()
	ctx := context.Background()
	policy, err := calib.PolicyFor(dev)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("device %s: drifting %.1f simulated hours...\n", dev.Name(), *hours)
	dev.AdvanceTime(*hours * 3600)
	fmt.Printf("  true freq %.6f GHz vs calibrated %.6f GHz (offset %+.3f kHz)\n",
		dev.TrueFrequency(0)/1e9, dev.CalibratedFrequency(0)/1e9,
		(dev.CalibratedFrequency(0)-dev.TrueFrequency(0))/1e3)
	fmt.Printf("  true amplitude scale %+.3f%%\n", (dev.TrueAmpScale()-1)*100)

	before, err := calib.RamseyErrorBenchmark(ctx, cl, dev, 0, tau, 2000)
	if err != nil {
		fatal(err)
	}
	beforeTrain, err := calib.PulseTrainBenchmark(ctx, cl, dev, 0, 11, 2000)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  benchmark error before calibration: ramsey=%.4f  train=%.4f\n", before, beforeTrain)

	fmt.Println("running Ramsey frequency calibration...")
	rr, err := calib.RamseyCalibrate(ctx, cl, dev, 0, policy.ProbeHz, 16, 800)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  measured offset %+.3f kHz, corrected %.6f -> %.6f GHz\n",
		rr.MeasuredOffsetHz/1e3, rr.OldFreq/1e9, rr.NewFreq/1e9)

	fmt.Println("running Rabi amplitude calibration...")
	ra, err := calib.RabiCalibrate(ctx, cl, dev, 0, 12, 800)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  pi amplitude %.4f -> %.4f (%+.2f%%)\n",
		ra.OldAmp, ra.NewAmp, (ra.NewAmp/ra.OldAmp-1)*100)

	after, err := calib.RamseyErrorBenchmark(ctx, cl, dev, 0, tau, 2000)
	if err != nil {
		fatal(err)
	}
	afterTrain, err := calib.PulseTrainBenchmark(ctx, cl, dev, 0, 11, 2000)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark error after calibration: ramsey=%.4f  train=%.4f\n", after, afterTrain)
	fmt.Printf("residual frequency error: %+.3f kHz\n",
		(dev.CalibratedFrequency(0)-dev.TrueFrequency(0))/1e3)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqss-calibrate:", err)
	os.Exit(1)
}
