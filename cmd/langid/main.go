// Command langid trains n-gram language profiles and classifies
// documents, end to end in software — the paper's pipeline without the
// hardware simulation.
//
// Train profiles with the streaming trainer, from a corpus
// directory (see cmd/corpusgen) or an NDJSON stream of
// {"lang": "es", "text": "..."} lines, into a flat file and/or a
// versioned registry:
//
//	langid train -corpus corpusdir -out profiles.bin [-n 4] [-t 5000]
//	langid train -ndjson docs.ndjson -registry /var/lib/langid -activate
//	cat docs.ndjson | langid train -ndjson - -registry /var/lib/langid
//
// Manage the registry's profile lifecycle (list, activate, rollback,
// garbage-collect); a running langidd picks up the active version on
// SIGHUP or POST /admin/reload:
//
//	langid profiles -registry /var/lib/langid
//	langid profiles -registry /var/lib/langid -activate v000002
//	langid profiles -registry /var/lib/langid -rollback
//	langid profiles -registry /var/lib/langid -gc 3
//
// Classify files (or stdin when no files are given):
//
//	langid classify -profiles profiles.bin [-k 4] [-m 16384] [-backend direct|bloom] file1.txt file2.txt
//	echo "el consejo de la unión europea" | langid classify -profiles profiles.bin
//
// Segment mixed-language files into per-language spans (or stdin when
// no files are given), with span boundaries every 16 n-grams; -tsv
// emits machine-readable rows, -color paints the document text span by
// span:
//
//	langid segment -profiles profiles.bin [-backend bloom] [-window 4096] [-penalty 8] file1.txt
//	langid segment -profiles profiles.bin -tsv file1.txt | cut -f4
//	langid segment -profiles profiles.bin -color mixed.txt
//
// Score profiles against a corpus directory's test split on GOMAXPROCS
// goroutines (the header line names the count), on the direct-lookup
// backend langidd serves unless -backend says otherwise:
//
//	langid eval -corpus corpusdir -profiles profiles.bin [-backend bloom]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"bloomlang"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("langid: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		train(os.Args[2:])
	case "profiles":
		profiles(os.Args[2:])
	case "classify":
		if err := classify(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "segment":
		segment(os.Args[2:])
	case "eval":
		if err := eval(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: langid train|profiles|classify|segment|eval [flags] [files...]")
	os.Exit(2)
}

// eval scores trained profiles against a corpus directory's test split,
// writing per-language accuracy and the confusion structure to w — the
// §5.1 evaluation as a command. Its detector comes from detectorFlags,
// so it scores the backend classify and segment run: direct-lookup
// unless -backend says otherwise.
func eval(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	corpusDir := fs.String("corpus", "", "corpus directory (corpusgen layout)")
	load := detectorFlags(fs)
	fs.Parse(args)
	if *corpusDir == "" {
		return errors.New("eval: -corpus is required")
	}
	corp, err := bloomlang.ReadCorpusDir(*corpusDir)
	if err != nil {
		return err
	}
	det, err := load()
	if err != nil {
		return err
	}
	// The evaluation pass is the timed one, so each document is
	// classified once.
	start := time.Now()
	ev := bloomlang.Evaluate(det, corp)
	rep := bloomlang.ThroughputReport{Bytes: corp.TestSize(""), Elapsed: time.Since(start), Docs: ev.Docs}
	fmt.Fprintf(w, "evaluated %d documents on %s at %.1f MB/s with GOMAXPROCS %d\n\n", ev.Docs, det.Backend(), rep.MBPerSec(), runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "per-language accuracy:")
	for _, lang := range ev.Languages {
		if acc, ok := ev.PerLanguage[lang]; ok {
			fmt.Fprintf(w, "  %-3s %-12s %6.2f%%\n", lang, bloomlang.LanguageName(lang), 100*acc)
		}
	}
	fmt.Fprintf(w, "\naverage %.2f%% (min %.2f%%, max %.2f%%)\n", 100*ev.Average, 100*ev.Min, 100*ev.Max)
	if truth, pred, n, ok := ev.TopConfusion(); ok {
		fmt.Fprintf(w, "top confusion: %s -> %s (%d docs)\n",
			bloomlang.LanguageName(truth), bloomlang.LanguageName(pred), n)
	}
	return nil
}

// train streams documents through the trainer — the corpus is
// never materialized in memory — then writes the profiles to a flat
// file, a registry version, or both.
func train(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	corpusDir := fs.String("corpus", "", "corpus directory (corpusgen layout)")
	ndjson := fs.String("ndjson", "", `NDJSON training stream of {"lang","text"} lines ("-" for stdin)`)
	out := fs.String("out", "", "output profile file")
	registryDir := fs.String("registry", "", "write the profiles as a new version in this registry")
	activate := fs.Bool("activate", false, "activate the new registry version after writing it")
	n := fs.Int("n", 4, "n-gram length")
	t := fs.Int("t", 5000, "profile size (top-t n-grams)")
	fs.Parse(args)
	if (*corpusDir == "") == (*ndjson == "") {
		log.Fatal("train: pass exactly one of -corpus or -ndjson")
	}
	if *out == "" && *registryDir == "" {
		*out = "profiles.bin"
	}
	if *activate && *registryDir == "" {
		log.Fatal("train: -activate requires -registry")
	}
	cfg := bloomlang.DefaultConfig()
	cfg.N = *n
	cfg.TopT = *t

	var (
		ps    *bloomlang.ProfileSet
		stats bloomlang.TrainStats
		err   error
	)
	switch {
	case *corpusDir != "":
		ps, stats, err = bloomlang.TrainDir(cfg, *corpusDir)
	case *ndjson == "-":
		ps, stats, err = bloomlang.TrainNDJSON(cfg, os.Stdin)
	default:
		f, ferr := os.Open(*ndjson)
		if ferr != nil {
			log.Fatal(ferr)
		}
		ps, stats, err = bloomlang.TrainNDJSON(cfg, f)
		f.Close()
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trained %d profiles (n=%d, t=%d) from %d documents (%.1f MB, %d n-grams)\n",
		len(ps.Profiles), *n, *t, stats.Docs, float64(stats.Bytes)/1e6, stats.Grams)
	for _, p := range ps.Profiles {
		ls := stats.Languages[p.Language]
		fmt.Printf("  %-3s %-12s %5d n-grams from %d docs\n",
			p.Language, bloomlang.LanguageName(p.Language), p.Size(), ls.Docs)
	}
	if *out != "" {
		if err := bloomlang.SaveProfiles(ps, *out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *registryDir != "" {
		reg, err := bloomlang.OpenRegistry(*registryDir)
		if err != nil {
			log.Fatal(err)
		}
		m, err := reg.Create(ps, stats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("created version %s in %s (checksum %.12s…)\n", m.Version, *registryDir, m.Checksum)
		if *activate {
			if err := reg.Activate(m.Version); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("activated %s\n", m.Version)
		}
	}
}

// profiles manages a registry's version lifecycle from the command
// line: list (default), activate, rollback, or garbage-collect.
func profiles(args []string) {
	fs := flag.NewFlagSet("profiles", flag.ExitOnError)
	registryDir := fs.String("registry", "", "profile registry directory")
	activate := fs.String("activate", "", "activate this version")
	rollback := fs.Bool("rollback", false, "reactivate the previously active version")
	gc := fs.Int("gc", -1, "remove old inactive versions, keeping this many")
	fs.Parse(args)
	if *registryDir == "" {
		log.Fatal("profiles: -registry is required")
	}
	reg, err := bloomlang.OpenRegistry(*registryDir)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *activate != "":
		if err := reg.Activate(*activate); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("activated %s\n", *activate)
	case *rollback:
		id, err := reg.Rollback()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rolled back to %s\n", id)
	case *gc >= 0:
		removed, err := reg.GC(*gc)
		if err != nil {
			log.Fatal(err)
		}
		if len(removed) == 0 {
			fmt.Println("nothing to remove")
		}
		for _, id := range removed {
			fmt.Printf("removed %s\n", id)
		}
	default:
		ms, err := reg.List()
		if err != nil {
			log.Fatal(err)
		}
		active, err := reg.ActiveVersion()
		if err != nil && !errors.Is(err, bloomlang.ErrNoActiveProfile) {
			log.Fatal(err)
		}
		if len(ms) == 0 {
			fmt.Println("registry is empty")
			return
		}
		for _, m := range ms {
			marker := " "
			if m.Version == active {
				marker = "*"
			}
			fmt.Printf("%s %s  %s  n=%d t=%d  %d languages, %d docs, %.1f MB profiles\n",
				marker, m.Version, m.CreatedAt.Format("2006-01-02 15:04:05"),
				m.Config.N, m.Config.TopT, len(m.Languages), m.Stats.Docs,
				float64(m.ProfileBytes)/1e6)
		}
	}
}

// classify writes each file's match, under the detector's thresholds,
// to w; with -v it adds the full ranking, best first, ties in language
// order.
func classify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	load := detectorFlags(fs)
	minMargin := fs.Float64("min-margin", 0, "answer unknown below this normalized winner margin")
	minNGrams := fs.Int("min-ngrams", 1, "answer unknown below this many testable n-grams")
	verbose := fs.Bool("v", false, "print the full language ranking")
	fs.Parse(args)
	det, err := load(bloomlang.WithMinMargin(*minMargin), bloomlang.WithMinNGrams(*minNGrams))
	if err != nil {
		return err
	}

	classifyOne := func(name string, text []byte) {
		match := det.Detect(text)
		if match.Unknown {
			fmt.Fprintf(w, "%s: unknown (%d n-grams, score %.3f, margin %.3f)\n",
				name, match.NGrams, match.Score, match.Margin)
		} else {
			fmt.Fprintf(w, "%s: %s (%s), score %.3f, margin %.3f over %d n-grams\n",
				name, match.Lang, bloomlang.LanguageName(match.Lang), match.Score, match.Margin, match.NGrams)
		}
		if *verbose {
			for _, m := range det.Rank(text, 0) {
				fmt.Fprintf(w, "  %-3s %6d  score %.3f\n", m.Lang, m.Count, m.Score)
			}
		}
	}

	if fs.NArg() == 0 {
		text, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		classifyOne("stdin", text)
		return nil
	}
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		classifyOne(path, text)
	}
	return nil
}

// segment splits mixed-language files into contiguous single-language
// spans — the traffic shape classify's single label gets wrong.
func segment(args []string) {
	fs := flag.NewFlagSet("segment", flag.ExitOnError)
	load := detectorFlags(fs)
	minMargin := fs.Float64("min-margin", 0, "mark spans unknown below this normalized span margin")
	minNGrams := fs.Int("min-ngrams", 1, "answer unknown below this many testable n-grams")
	window := fs.Int("window", 0, "commit horizon in n-grams, a multiple of 16 (0 = default 4096)")
	penalty := fs.Int("penalty", 0, "score one language change costs, in n-gram matches (0 = default 8)")
	tsv := fs.Bool("tsv", false, "tab-separated output: file, start, end, lang, score, margin")
	colored := fs.Bool("color", false, "print the document text with one ANSI color per language")
	fs.Parse(args)
	det, err := load(bloomlang.WithMinMargin(*minMargin), bloomlang.WithMinNGrams(*minNGrams))
	if err != nil {
		log.Fatal(err)
	}
	segCfg := bloomlang.SegmentConfig{
		Window:  *window,
		Penalty: *penalty,
	}
	if err := segCfg.Validate(); err != nil {
		log.Fatal(err)
	}

	segmentOne := func(name string, text []byte) {
		spans, err := det.DetectSpans(text, segCfg)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case *tsv:
			for _, sp := range spans {
				lang := sp.Lang
				if sp.Unknown {
					lang = "?"
				}
				fmt.Printf("%s\t%d\t%d\t%s\t%.3f\t%.3f\n", name, sp.Start, sp.End, lang, sp.Score, sp.Margin)
			}
		case *colored:
			printColored(text, spans)
		default:
			fmt.Printf("%s: %d spans over %d bytes\n", name, len(spans), len(text))
			for _, sp := range spans {
				if sp.Unknown {
					fmt.Printf("  %6d-%-6d unknown (score %.3f, margin %.3f)\n", sp.Start, sp.End, sp.Score, sp.Margin)
					continue
				}
				fmt.Printf("  %6d-%-6d %-3s %-12s score %.3f, margin %.3f\n",
					sp.Start, sp.End, sp.Lang, bloomlang.LanguageName(sp.Lang), sp.Score, sp.Margin)
			}
		}
	}

	if fs.NArg() == 0 {
		text, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		segmentOne("stdin", text)
		return
	}
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		segmentOne(path, text)
	}
}

// spanPalette cycles distinguishable ANSI foreground colors; unknown
// spans render dim.
var spanPalette = []string{"31", "32", "33", "34", "35", "36", "91", "92", "93", "94", "95", "96"}

// printColored paints each span of the document in a color assigned to
// its language in order of first appearance.
func printColored(text []byte, spans []bloomlang.Span) {
	colors := map[string]string{}
	var order []string
	for _, sp := range spans {
		body := text[sp.Start:sp.End]
		if sp.Unknown {
			fmt.Printf("\x1b[2m%s\x1b[0m", body)
			continue
		}
		c, ok := colors[sp.Lang]
		if !ok {
			c = spanPalette[len(colors)%len(spanPalette)]
			colors[sp.Lang] = c
			order = append(order, sp.Lang)
		}
		fmt.Printf("\x1b[%sm%s\x1b[0m", c, body)
	}
	fmt.Println()
	for _, lang := range order {
		fmt.Printf("\x1b[%sm■\x1b[0m %s (%s)  ", colors[lang], lang, bloomlang.LanguageName(lang))
	}
	if len(order) > 0 {
		fmt.Println()
	}
}

// detectorFlags declares on fs the flags that choose the profiles and
// the detector classify, segment and eval run, and returns the function
// that loads the profiles and builds the detector once fs is parsed.
// Without -backend the detector runs on direct-lookup, the exact kernel
// langidd serves every profile file on at every n; -backend bloom runs
// the paper's parallel Bloom filter instead.
func detectorFlags(fs *flag.FlagSet) func(opts ...bloomlang.DetectorOption) (*bloomlang.Detector, error) {
	profilePath := fs.String("profiles", "profiles.bin", "trained profile file")
	k := fs.Int("k", 4, "hash functions per Bloom filter")
	m := fs.Uint("m", 16*1024, "bits per Bloom filter vector (power of two)")
	backend := fs.String("backend", "direct", "membership backend: direct (exact table, the one langidd serves) or bloom (parallel Bloom filter)")
	return func(opts ...bloomlang.DetectorOption) (*bloomlang.Detector, error) {
		ps, err := bloomlang.LoadProfiles(*profilePath)
		if err != nil {
			return nil, err
		}
		applyFilterFlags(fs, ps, *k, uint32(*m))
		be, err := bloomlang.ParseBackend(*backend)
		if err != nil {
			return nil, err
		}
		return bloomlang.NewDetector(ps, append(opts, bloomlang.WithBackend(be))...)
	}
}

// applyFilterFlags overrides the loaded configuration's filter geometry
// only for flags the user actually set: profile files carry their
// training configuration, and silently clobbering it with flag defaults
// would build different filters than a daemon serving the same file.
func applyFilterFlags(fs *flag.FlagSet, ps *bloomlang.ProfileSet, k int, m uint32) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "k":
			ps.Config.K = k
		case "m":
			ps.Config.MBits = m
		}
	})
}
