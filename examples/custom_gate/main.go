// Extending a device's native gate set with a custom pulse-defined
// operation (paper §5.2, footnote 2: "an expert can define a new quantum
// gate by providing its pulse waveform on that hardware"). The example
// installs a custom √X implementation through the QDMI pulse-calibration
// interface, queries it back, and verifies it by playing the waveform twice
// through a raw pulse kernel — two √X make an X.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	mqsspulse "mqsspulse"
)

func main() {
	dev, err := mqsspulse.NewSuperconductingDevice("custom-sc", 1, 5)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	// Fetch the calibrated X envelope through QDMI and halve its area: a
	// hand-rolled √X ("myroot") pulse.
	xImpl, err := dev.DefaultPulse("x", []int{0})
	if err != nil {
		log.Fatal(err)
	}
	halfWave, err := xImpl.Steps[0].Waveform.Scale(0.5)
	if err != nil {
		log.Fatal(err)
	}
	halfWave.Name = "myroot_pulse"
	custom := &mqsspulse.PulseImpl{
		Operation: "myroot",
		Steps: []mqsspulse.PulseStep{
			{Kind: "play", PortRole: "drive0", Waveform: halfWave},
		},
	}
	if err := dev.SetPulseImpl("myroot", []int{0}, custom); err != nil {
		log.Fatal(err)
	}
	fmt.Println("installed custom operation 'myroot' via QDMI SetPulseImpl")

	// The device now advertises it.
	back, err := dev.DefaultPulse("myroot", []int{0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device reports %q with %d pulse step(s)\n", back.Operation, len(back.Steps))
	for _, op := range dev.Operations() {
		if op == "myroot" {
			fmt.Println("'myroot' appears in the device's operation inventory")
		}
	}

	// Verify physically: play the custom pulse twice — should equal X.
	kernel := mqsspulse.NewCircuit("double_root", 1, 1).
		Waveform("myroot_pulse", halfWave.Samples).
		PlayWaveform("q0-drive", "myroot_pulse").
		PlayWaveform("q0-drive", "myroot_pulse").
		Measure(0, 0)
	if err := kernel.End(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := stack.Client.RunCtx(ctx, kernel, "custom-sc", mqsspulse.SubmitOptions{Shots: 4000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two 'myroot' pulses then measure: P(1) = %.3f (expect ≈ 0.985 readout-limited)\n",
		res.Probability(1))

	// One application alone is an equal superposition.
	single := mqsspulse.NewCircuit("single_root", 1, 1).
		Waveform("myroot_pulse", halfWave.Samples).
		PlayWaveform("q0-drive", "myroot_pulse").
		Measure(0, 0)
	if err := single.End(); err != nil {
		log.Fatal(err)
	}
	res1, err := stack.Client.RunCtx(ctx, single, "custom-sc", mqsspulse.SubmitOptions{Shots: 4000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one 'myroot' pulse then measure:  P(1) = %.3f (expect ≈ 0.5)\n", res1.Probability(1))
}
