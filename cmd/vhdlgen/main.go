// Command vhdlgen exports a trained classifier configuration as
// synthesizable VHDL — the form the paper's implementation took (§4).
// Profiles come from cmd/langid train (or langidd -save); the H3
// matrices are fixed by the seed, so software classification, the
// cycle simulator, and the generated hardware all implement the same
// function.
//
// Usage:
//
//	vhdlgen -profiles profiles.bin [-k 4] [-m 16384] [-seed 1] [-out classifier.vhd]
//
// The hardware is generated for the configuration recorded in the
// profile file, the one the software serving that file runs; -k, -m and
// -seed override it only when given. Legacy bare-profile files carry no
// configuration and are read under the defaults.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/vhdl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vhdlgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, loads the profile file and writes the VHDL listing
// to -out (stdout for "-").
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vhdlgen", flag.ContinueOnError)
	profilePath := fs.String("profiles", "profiles.bin", "trained profile file (langid train -out, langidd -save)")
	k := fs.Int("k", 4, "hash functions per Bloom filter (default: the file's)")
	m := fs.Uint("m", 16*1024, "bits per bit-vector, a power of two (default: the file's)")
	seed := fs.Int64("seed", 1, "H3 matrix seed (default: the file's; must match the software deployment)")
	out := fs.String("out", "classifier.vhd", "output VHDL file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ps, err := core.LoadProfileSetFile(*profilePath)
	if err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "k":
			ps.Config.K = *k
		case "m":
			ps.Config.MBits = uint32(*m)
		case "seed":
			ps.Config.Seed = *seed
		}
	})
	if err := ps.Config.Validate(); err != nil {
		return err
	}
	filters, err := bloom.ParallelFilters(ps)
	if err != nil {
		return err
	}

	w := stdout
	var of *os.File
	if *out != "-" {
		if of, err = os.Create(*out); err != nil {
			return err
		}
		defer of.Close() // error paths; success checks Close below
		w = of
	}
	bw := bufio.NewWriter(w)
	cfg := ps.Config
	if err := vhdl.Generate(bw, cfg, ps.Languages(), filters); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if of != nil {
		if err := of.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d languages, k=%d, m=%d bits, n=%d\n",
			*out, len(filters), cfg.K, cfg.MBits, cfg.N)
	}
	return nil
}
