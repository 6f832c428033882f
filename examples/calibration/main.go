// Automated calibration across heterogeneous technologies (paper §2.1):
// three simulated devices drift at their characteristic timescales —
// neutral-atom lasers on minutes, superconducting qubit frequencies over
// tens of minutes to hours, trapped-ion gate strengths over hours — and a
// calibration scheduler with technology-appropriate cadences keeps each
// within spec while an uncalibrated twin degrades. The closing section
// shows the compiler side of the story: calibration writebacks bump the
// device's calibration epoch, invalidating cached lowerings so the next
// submission recompiles against the fresh tables.
package main

import (
	"context"
	"fmt"
	"log"

	mqsspulse "mqsspulse"
)

func main() {
	type tech struct {
		name  string
		make  func(string, int64) (*mqsspulse.SimDevice, error)
		hours float64
		step  float64
		tau   float64 // Ramsey benchmark delay
	}
	cases := []tech{
		{"neutral-atom", func(n string, s int64) (*mqsspulse.SimDevice, error) {
			return mqsspulse.NewNeutralAtomDevice(n, 1, s)
		}, 0.5, 120, 20e-6},
		{"superconducting", func(n string, s int64) (*mqsspulse.SimDevice, error) {
			return mqsspulse.NewSuperconductingDevice(n, 1, s)
		}, 4, 1200, 3e-6},
		{"trapped-ion", func(n string, s int64) (*mqsspulse.SimDevice, error) {
			return mqsspulse.NewTrappedIonDevice(n, 1, s)
		}, 12, 3600, 100e-6},
	}
	const seed = 99
	for _, tc := range cases {
		maintained, err := tc.make(tc.name+"-cal", seed)
		if err != nil {
			log.Fatal(err)
		}
		neglected, err := tc.make(tc.name+"-raw", seed) // identical drift path
		if err != nil {
			log.Fatal(err)
		}
		policy, err := mqsspulse.CalibrationPolicyFor(maintained)
		if err != nil {
			log.Fatal(err)
		}
		// Calibration jobs and benchmarks go through the stack like any job.
		stack, err := mqsspulse.NewStack(maintained, neglected)
		if err != nil {
			log.Fatal(err)
		}
		sched := mqsspulse.NewCalibrationScheduler(stack.Client, maintained, policy)

		fmt.Printf("=== %s: %.1f simulated hours, Ramsey cadence %.0f s ===\n",
			tc.name, tc.hours, policy.RamseyEverySeconds)
		steps := int(tc.hours * 3600 / tc.step)
		var calSum, rawSum float64
		for i := 0; i < steps; i++ {
			maintained.AdvanceTime(tc.step)
			neglected.AdvanceTime(tc.step)
			if _, err := sched.Tick(context.Background()); err != nil {
				log.Fatal(err)
			}
			ec, err := mqsspulse.RamseyErrorBenchmark(context.Background(), stack.Client, maintained, 0, tc.tau, 800)
			if err != nil {
				log.Fatal(err)
			}
			er, err := mqsspulse.RamseyErrorBenchmark(context.Background(), stack.Client, neglected, 0, tc.tau, 800)
			if err != nil {
				log.Fatal(err)
			}
			calSum += ec
			rawSum += er
		}
		fmt.Printf("  calibrations executed: %d\n", len(sched.Events))
		var ramsey, rabi string
		for _, ev := range sched.Events {
			if ev.Routine == "ramsey" {
				ramsey = fmt.Sprintf("ramsey at %.2f h measured %+.3f kHz", ev.AtSeconds/3600, ev.OffsetHz/1e3)
			} else {
				rabi = fmt.Sprintf("rabi at %.2f h corrected %+.2f%%", ev.AtSeconds/3600, ev.AmpDelta*100)
			}
		}
		fmt.Printf("  last %s, last %s\n", ramsey, rabi)
		fmt.Printf("  mean benchmark error:  maintained %.4f   neglected %.4f\n",
			calSum/float64(steps), rawSum/float64(steps))
		fmt.Printf("  final frequency error: maintained %+.2f kHz  neglected %+.2f kHz\n\n",
			(maintained.CalibratedFrequency(0)-maintained.TrueFrequency(0))/1e3,
			(neglected.CalibratedFrequency(0)-neglected.TrueFrequency(0))/1e3)
		stack.Close()
	}
	if err := epochDemo(seed); err != nil {
		log.Fatal(err)
	}
}

// epochDemo shows calibration epochs driving recompilation: a cached
// lowering survives resubmission of an unchanged kernel, a Rabi
// calibration writeback bumps the epoch, and the next submission
// invalidates the stale entry and recompiles against the new amplitude.
func epochDemo(seed int64) error {
	dev, err := mqsspulse.NewSuperconductingDevice("epoch-demo", 1, seed)
	if err != nil {
		return err
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		return err
	}
	defer stack.Close()

	k := mqsspulse.NewCircuit("probe", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		return err
	}
	ctx := context.Background()
	run := func() error {
		_, err := stack.Client.RunCtx(ctx, k, "epoch-demo", mqsspulse.SubmitOptions{Shots: 200})
		return err
	}

	fmt.Println("=== calibration epochs: cached lowerings track recalibration ===")
	for i := 0; i < 2; i++ {
		if err := run(); err != nil {
			return err
		}
	}
	epoch, _ := mqsspulse.CalibrationEpoch(dev)
	st := stack.Client.CacheStats()
	fmt.Printf("  two runs at epoch %d: cache hits=%d misses=%d\n", epoch, st.Hits, st.Misses)

	// Hours of drift, then a Rabi writeback: the epoch moves.
	dev.AdvanceTime(4 * 3600)
	if _, err := mqsspulse.RabiCalibrate(context.Background(), stack.Client, dev, 0, 12, 400); err != nil {
		return err
	}
	epoch, _ = mqsspulse.CalibrationEpoch(dev)
	if err := run(); err != nil {
		return err
	}
	st = stack.Client.CacheStats()
	fmt.Printf("  after Rabi calibration (epoch %d): invalidations=%d misses=%d — recompiled against the new amplitude\n",
		epoch, st.Invalidations, st.Misses)
	return nil
}
