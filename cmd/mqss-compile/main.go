// mqss-compile JIT-compiles a quantum program for a target device and
// prints the QIR Pulse-Profile exchange payload (or the intermediate MLIR).
//
// Usage:
//
//	mqss-compile -device sc -in program.qpi            # interpreted QPI text
//	mqss-compile -device ion -format mlir -in mod.mlir # MLIR pulse dialect
//	mqss-compile -device sc -in program.qpi -emit mlir # stop after midend
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mqsspulse/internal/client"
	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
)

func main() {
	device := flag.String("device", "sc", "target device preset: sc, ion, atom")
	in := flag.String("in", "", "input program file (default: stdin)")
	format := flag.String("format", "qpi", "input format: qpi (interpreted text) or mlir")
	emit := flag.String("emit", "qir", "output: qir or mlir")
	stats := flag.Bool("stats", false, "print pass statistics to stderr")
	flag.Parse()

	src, err := readInput(*in)
	if err != nil {
		fatal(err)
	}
	dev, err := devices.Preset(*device, *device+"-target", 2, 1)
	if err != nil {
		fatal(err)
	}
	var res *compiler.Result
	switch *format {
	case "qpi":
		drv := qdmi.NewDriver()
		if err := drv.RegisterDevice(dev); err != nil {
			fatal(err)
		}
		cl := client.New(drv.OpenSession())
		defer cl.Close()
		adapter := &client.InterpretedAdapter{Client: cl, Target: dev.Name()}
		kernel, err := adapter.ParseProgram(string(src))
		if err != nil {
			fatal(err)
		}
		res, err = compiler.Compile(kernel, dev)
		if err != nil {
			fatal(err)
		}
	case "mlir":
		res, err = compiler.CompileMLIRText(string(src), dev)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown input format %q", *format))
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "pass stats: %v\n", res.Stats)
		for _, pt := range res.Timings.Passes {
			fmt.Fprintf(os.Stderr, "  %-32s %10v  ops %d -> %d\n", pt.Pass, pt.Duration, pt.OpsIn, pt.OpsOut)
		}
	}
	switch *emit {
	case "qir":
		fmt.Print(string(res.Payload))
	case "mlir":
		fmt.Print(res.MLIR.Print())
	default:
		fatal(fmt.Errorf("unknown emit target %q", *emit))
	}
}

func readInput(path string) ([]byte, error) {
	if path == "" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mqss-compile:", err)
	os.Exit(1)
}
