// Mixed call-chain profiling: the capability the paper's conclusion
// announces as future work — "tracking complete call chains including a
// mix of Java and native methods", which neither Java-only nor
// system-specific profilers can do because neither sees both kinds of
// stack frames.
//
// This example profiles the javac-like benchmark with the chain-tracking
// agent and prints the hottest chains and every Java/native boundary
// crossing.
//
//	go run ./examples/callchains [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/agents/recorder"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	name := "javac"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	b, err := workloads.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := workloads.Build(b.Spec.Scale(20))
	if err != nil {
		log.Fatal(err)
	}

	agent := recorder.NewChains()
	res, err := core.Run(prog, agent, vm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s: %d cycles under the chain tracker\n\n", name, res.TotalCycles)
	fmt.Println("hottest chains (exclusive cycles):")
	fmt.Print(agent.RenderTop(8))

	fmt.Println()
	fmt.Println("chains crossing the Java/native boundary:")
	for _, cs := range agent.MixedChains() {
		fmt.Printf("  %-50s calls=%-8d cycles=%d\n", cs.Chain, cs.Calls, cs.ExclusiveCycles)
	}
	fmt.Println()
	fmt.Printf("agent-attributed split: %.2f%% native\n", res.Report.NativeFraction()*100)
}
