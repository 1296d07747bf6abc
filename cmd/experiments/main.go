// Command experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the simulated testbed — 8 nodes × 2 Pentium III
// CPUs, 100 Mbit Ethernet, a 3000×3000 scene:
//
//	experiments -fig 5f   Fig. 5 (left):  runtime vs tokens, factoring
//	experiments -fig 5b   Fig. 5 (right): runtime vs tokens, block
//	experiments -fig 6    Fig. 6 (left):  absolute runtimes, 1–8 nodes
//	experiments -fig 6s   Fig. 6 (right): speed-up vs MPI 2 proc/node
//	experiments -fig all  everything
//
// Each table prints the simulated value next to the paper's published
// value where one exists (simnet.PaperFig6; TestFig6WithinTolerance holds
// the two within a stated tolerance). Wall-clock runs of the real runtime
// are the benchmark's job: bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"snet/internal/simnet"
)

func main() {
	var (
		fig = flag.String("fig", "all", "5f|5b|6|6s|all")
		h   = flag.Int("rows", 3000, "simulated image height")
	)
	flag.Parse()

	profile := simnet.PaperRowProfile(*h)

	switch *fig {
	case "5f":
		fig5(profile, true)
	case "5b":
		fig5(profile, false)
	case "6":
		fig6(profile)
	case "6s":
		fig6speedup(profile)
	case "all":
		fig5(profile, true)
		fmt.Println()
		fig5(profile, false)
		fmt.Println()
		fig6(profile)
		fmt.Println()
		fig6speedup(profile)
	default:
		fmt.Fprintln(os.Stderr, "unknown -fig; want 5f|5b|6|6s|all")
		os.Exit(2)
	}
}

func fig5(profile []float64, factoring bool) {
	name := "Fig. 5 (right): 8 Nodes, Block Scheduling"
	if factoring {
		name = "Fig. 5 (left): 8 Nodes, Simple Factoring Scheduling"
	}
	fmt.Println(name)
	fmt.Println("runtime in seconds; rows = tasks, columns = tokens")
	fmt.Printf("%9s", "")
	for _, tok := range simnet.PaperTaskTokenCounts {
		fmt.Printf(" %8d", tok)
	}
	fmt.Println()
	pts, err := simnet.Fig5(profile, factoring, simnet.PaperTaskTokenCounts, simnet.PaperTaskTokenCounts)
	if err != nil {
		log.Fatal(err)
	}
	i := 0
	for _, tasks := range simnet.PaperTaskTokenCounts {
		fmt.Printf("%2d tasks ", tasks)
		for range simnet.PaperTaskTokenCounts {
			fmt.Printf(" %8.2f", pts[i].Runtime)
			i++
		}
		fmt.Println()
	}
}

func fig6(profile []float64) {
	fmt.Println("Fig. 6 (left): Absolute Runtimes on 1 - 8 Nodes (seconds, simulated vs paper)")
	rows, err := simnet.Fig6(profile, simnet.PaperNodeCounts)
	if err != nil {
		log.Fatal(err)
	}
	variants := []string{"S-Net Static", "S-Net Static 2CPU", "MPI", "MPI 2 Proc/Node", "S-Net Best Dynamic"}
	fmt.Printf("%-20s", "")
	for _, n := range simnet.PaperNodeCounts {
		fmt.Printf(" %7d Node", n)
	}
	fmt.Println()
	value := func(r simnet.Fig6Row, v string) float64 {
		switch v {
		case "S-Net Static":
			return r.SNetStatic
		case "S-Net Static 2CPU":
			return r.SNetStatic2
		case "MPI":
			return r.MPI
		case "MPI 2 Proc/Node":
			return r.MPI2
		default:
			return r.BestDynamic
		}
	}
	for _, v := range variants {
		fmt.Printf("%-20s", v)
		for _, r := range rows {
			fmt.Printf(" %12.2f", value(r, v))
		}
		fmt.Println()
		fmt.Printf("%-20s", "  (paper)")
		for _, r := range simnet.PaperFig6 {
			fmt.Printf(" %12.2f", value(r, v))
		}
		fmt.Println()
	}
}

func fig6speedup(profile []float64) {
	fmt.Println("Fig. 6 (right): Speed-Up vs. MPI 2 Processes/Node (simulated, paper in parens)")
	rows, err := simnet.Fig6(profile, simnet.PaperNodeCounts)
	if err != nil {
		log.Fatal(err)
	}
	paper := simnet.Fig6Speedup(simnet.PaperFig6) // same node counts, same order
	fmt.Printf("%6s %24s %26s\n", "nodes", "S-Net Static 2CPU", "S-Net Best Dynamic")
	for i, s := range simnet.Fig6Speedup(rows) {
		fmt.Printf("%6d %12.2f (%.2f) %18.2f (%.2f)\n",
			s.Nodes, s.Static2CPU, paper[i].Static2CPU, s.BestDynamic, paper[i].BestDynamic)
	}
}
