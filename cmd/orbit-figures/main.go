// Command orbit-figures regenerates every table and figure of the ORBIT
// paper's evaluation section in one run: the analytical scaling
// results (Fig. 5, Table I, Fig. 6, Fig. 7) and the real-training
// results (Fig. 8, Fig. 9, Fig. 10) at the chosen scale.
//
// Usage:
//
//	orbit-figures          # quick (seconds–minutes)
//	orbit-figures -scale full
package main

import (
	"flag"
	"fmt"
	"time"

	orbit "orbit"
)

func section(name string) {
	fmt.Printf("=== %s (%s) ===\n", name, time.Now().Format("15:04:05"))
}

func main() {
	scale := flag.String("scale", "quick", "empirical experiment scale: quick or full")
	flag.Parse()
	sc := orbit.QuickScale()
	if *scale == "full" {
		sc = orbit.FullScale()
	}

	section("Fig. 5: maximal model size")
	fmt.Println(orbit.FormatFig5(orbit.Fig5()))
	section("Table I: optimization ablation")
	fmt.Println(orbit.FormatTableI(orbit.TableI()))
	section("Fig. 6: parallelism configuration sweep")
	fmt.Println(orbit.FormatFig6(orbit.Fig6()))
	section("Fig. 7a: strong scaling, 48 channels")
	fmt.Println(orbit.FormatFig7(orbit.Fig7(48)))
	section("Fig. 7b: strong scaling, 91 channels")
	fmt.Println(orbit.FormatFig7(orbit.Fig7(91)))
	section("Fig. 8: pre-training loss vs model size")
	fmt.Println(orbit.FormatFig8(orbit.Fig8(sc)))
	section("Fig. 9: forecast skill comparison")
	fmt.Println(orbit.FormatFig9(orbit.Fig9(sc)))
	section("Fig. 10: fine-tuning data efficiency")
	fmt.Println(orbit.FormatFig10(orbit.Fig10(sc)))
}
