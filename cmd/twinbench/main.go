// Command twinbench regenerates the evaluation of the TwinDrivers paper:
// every table and figure of §6, measured on the simulated machine.
//
// Usage:
//
//	twinbench -experiment all          # everything, paper-scale packet counts
//	twinbench -experiment fig5 -quick  # one experiment, fewer packets
//	twinbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twindrivers"
)

func main() {
	var ids []string
	for _, e := range twindrivers.Experiments() {
		ids = append(ids, e.ID)
	}
	experiment := flag.String("experiment", "all", "experiment id ("+strings.Join(ids, ", ")+", all)")
	quick := flag.Bool("quick", false, "fewer packets per measurement")
	list := flag.Bool("list", false, "list experiments and exit")
	bench := flag.String("bench", "", "directory to write BENCH_<area>.json measurement sets into (sweep experiments only)")
	flag.Parse()

	if *list {
		for _, e := range twindrivers.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if err := twindrivers.RunExperimentBench(os.Stdout, *experiment, *quick, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "twinbench:", err)
		os.Exit(1)
	}
}
