// Unseen anomalies: the paper's Section V extension. The supervised TAN
// classifier only recognizes recurrent anomalies it has been trained on;
// replacing it with an unsupervised outlier detector (clustering over
// the normal operating states) lets PREPARE prevent even the FIRST
// occurrence of a fault class — no labeled training injection needed.
//
//	go run ./examples/unseen
package main

import (
	"fmt"
	"log"

	"prepare"
)

func main() {
	fmt.Println("First-occurrence prevention (RUBiS, unseen memory leak)")
	fmt.Println()
	fmt.Println("The models train at t=600s on fault-free data only; the memory")
	fmt.Println("leak injected at t=900s is the first anomaly the system ever sees.")
	fmt.Println()

	base := prepare.Scenario{
		App:                prepare.RUBiS,
		Fault:              prepare.MemoryLeak,
		Seed:               100,
		SkipFirstInjection: true,
	}

	run := func(scheme prepare.Scheme, detector string) prepare.Result {
		sc := base
		sc.Scheme = scheme
		sc.Detector = prepare.DetectorSpec{Kind: detector}
		res, err := prepare.Run(sc)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	none := run(prepare.SchemeNone, prepare.DetectorTAN)
	supervised := run(prepare.SchemePREPARE, prepare.DetectorTAN)
	unsupervised := run(prepare.SchemePREPARE, prepare.DetectorKMeans)

	fmt.Printf("%-38s %18s %8s\n", "variant", "violation (s)", "actions")
	fmt.Printf("%-38s %18d %8d\n", "without intervention", none.EvalViolationSeconds, 0)
	fmt.Printf("%-38s %18d %8d\n", "PREPARE (supervised TAN)", supervised.EvalViolationSeconds, len(supervised.Steps))
	fmt.Printf("%-38s %18d %8d\n", "PREPARE (unsupervised, k-means)", unsupervised.EvalViolationSeconds, len(unsupervised.Steps))

	fmt.Println("\nunsupervised prevention steps:")
	for _, s := range unsupervised.Steps {
		fmt.Printf("  t=%-6v %-8s %-10v %s\n", s.Time, s.VM, s.Kind, s.Detail)
	}

	fmt.Println("\nThe supervised model, trained without a single labeled anomaly,")
	fmt.Println("retains only a weak novelty effect and reacts late; the outlier")
	fmt.Println("detector flags the drift out of the learned normal modes early")
	fmt.Println("enough to prevent the violation outright.")
}
