// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5), printing measured results alongside the
// published numbers.
//
// Usage:
//
//	experiments [-scale small|default|large|paper] [-only 1|2|3|4|fig4|confusion]
//
// At the default scale the full run takes on the order of a minute;
// -scale paper generates the full 484 MB corpus shape and takes much
// longer.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	scaleName := flag.String("scale", "default", "corpus scale: small, default, large or paper")
	only := flag.String("only", "", "run a single experiment: 1, 2, 3, 4, fig4, confusion or subsample")
	flag.Parse()

	scale, figScale, err := scales(*scaleName)
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string) bool { return *only == "" || *only == name }

	if run("1") {
		rows, err := RunTable1(scale)
		if err != nil {
			log.Fatalf("table 1: %v", err)
		}
		fmt.Println(FormatTable1(rows))
	}
	if run("2") {
		rows, err := RunTable2()
		if err != nil {
			log.Fatalf("table 2: %v", err)
		}
		fmt.Println(FormatTable2(rows))
	}
	if run("3") {
		rows, err := RunTable3()
		if err != nil {
			log.Fatalf("table 3: %v", err)
		}
		fmt.Println(FormatTable3(rows))
	}
	if run("fig4") {
		fig, err := RunFigure4(figScale)
		if err != nil {
			log.Fatalf("figure 4: %v", err)
		}
		fmt.Println(FormatFigure4(fig))
	}
	if run("4") {
		t4, err := RunTable4(figScale)
		if err != nil {
			log.Fatalf("table 4: %v", err)
		}
		fmt.Println(FormatTable4(t4))
	}
	if run("confusion") {
		conf, err := RunConfusion(scale)
		if err != nil {
			log.Fatalf("confusion: %v", err)
		}
		fmt.Println(FormatConfusion(conf))
	}
	if run("subsample") {
		rows, err := RunSubsampleAblation(scale)
		if err != nil {
			log.Fatalf("subsample: %v", err)
		}
		fmt.Println(FormatSubsampleAblation(rows))
	}
	if *only != "" && !validOnly(*only) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want 1, 2, 3, 4, fig4, confusion or subsample)\n", *only)
		os.Exit(2)
	}
}

func validOnly(s string) bool {
	switch s {
	case "1", "2", "3", "4", "fig4", "confusion", "subsample":
		return true
	}
	return false
}

func scales(name string) (accuracy, throughput Scale, err error) {
	switch name {
	case "small":
		s := Scale{DocsPerLanguage: 60, WordsPerDoc: 250, TrainFraction: 0.15, Seed: 1}
		f := Scale{DocsPerLanguage: 25, WordsPerDoc: 1300, TrainFraction: 0.15, Seed: 1}
		return s, f, nil
	case "default":
		return DefaultScale(), Figure4Scale(), nil
	case "large":
		s := Scale{DocsPerLanguage: 600, WordsPerDoc: 700, TrainFraction: 0.10, Seed: 1}
		f := Scale{DocsPerLanguage: 200, WordsPerDoc: 1300, TrainFraction: 0.10, Seed: 1}
		return s, f, nil
	case "paper":
		return PaperScale(), PaperScale(), nil
	}
	return accuracy, throughput, fmt.Errorf("unknown scale %q (want small, default, large or paper)", name)
}
