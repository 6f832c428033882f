// mqss-experiments regenerates the paper-reproduction experiment tables.
//
// Usage:
//
//	mqss-experiments -all        # run every experiment
//	mqss-experiments -exp EXP-C2 # run one experiment
//	mqss-experiments -list       # list experiment IDs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mqsspulse/internal/experiments"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	exp := flag.String("exp", "", "run a single experiment by ID (e.g. EXP-F1)")
	list := flag.Bool("list", false, "list experiment IDs")
	flag.Parse()

	run := func(id string) {
		f, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tab, err := f(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	switch {
	case *list:
		for _, e := range experiments.Experiments {
			fmt.Println(e.ID)
		}
	case *all:
		for _, e := range experiments.Experiments {
			run(e.ID)
		}
	case *exp != "":
		run(*exp)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
