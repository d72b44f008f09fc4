// Command orbit-finetune runs the paper's fine-tuning evaluations on
// synthetic ERA5: -compare regenerates Fig. 9 (wACC of ORBIT vs
// ClimaX-like, FourCastNet-like and IFS-like forecasters at 1/14/30
// days), -efficiency regenerates Fig. 10 (fine-tuning samples to
// convergence versus model size).
//
// Usage:
//
//	orbit-finetune -compare -scale full
//	orbit-finetune -efficiency
package main

import (
	"flag"
	"fmt"
	"os"

	orbit "orbit"
)

func main() {
	compare := flag.Bool("compare", false, "run the Fig. 9 forecast-skill comparison")
	efficiency := flag.Bool("efficiency", false, "run the Fig. 10 data-efficiency study")
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	flag.Parse()

	sc, err := orbit.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "orbit-finetune:", err)
		os.Exit(2)
	}
	ran := false
	if *compare {
		fmt.Println(orbit.FormatFig9(orbit.Fig9(sc)))
		ran = true
	}
	if *efficiency {
		fmt.Println(orbit.FormatFig10(orbit.Fig10(sc)))
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
