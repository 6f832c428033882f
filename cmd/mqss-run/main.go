// mqss-run compiles and executes a quantum program on a simulated device
// through the full stack (adapter → client → QRM → JIT → QDMI → device) and
// prints the measured histogram.
//
// Usage:
//
//	mqss-run -device sc -shots 2048 -in bell.qpi
//	echo "circuit c 1 1
//	x 0
//	measure 0 0" | mqss-run -device atom
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"

	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
)

func main() {
	device := flag.String("device", "sc", "device preset: sc, ion, atom")
	in := flag.String("in", "", "input program file in QPI text grammar (default: stdin)")
	shots := flag.Int("shots", 1024, "measurement shots")
	sites := flag.Int("sites", 2, "device site count")
	timeout := flag.Duration("timeout", 0, "bound the whole run (0 = no deadline)")
	flag.Parse()

	// Ctrl-C cancels the in-flight job (queued work never dispatches;
	// running work is aborted on devices that support it).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	dev, err := devices.Preset(*device, *device, *sites, 1)
	if err != nil {
		fatal(err)
	}
	var src []byte
	if *in == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*in)
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
	adapter := &client.InterpretedAdapter{Client: cl, Target: dev.Name()}
	res, err := adapter.ExecuteCtx(ctx, string(src), client.SubmitOptions{Shots: *shots})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("device: %s   shots: %d   schedule: %.4g µs\n",
		dev.Name(), res.Shots, res.DurationSeconds*1e6)
	masks := make([]uint64, 0, len(res.Counts))
	for m := range res.Counts {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	for _, m := range masks {
		n := res.Counts[m]
		bar := ""
		for i := 0; i < 40*n/res.Shots; i++ {
			bar += "#"
		}
		fmt.Printf("%08b  %6d  %6.3f  %s\n", m, n, float64(n)/float64(res.Shots), bar)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqss-run:", err)
	os.Exit(1)
}
