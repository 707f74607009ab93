package core

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"os"
	"reflect"
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// goLoop makes the fused loops count on the Go loop, countLanes, for
// the rest of the test: the path of every CPU without AVX2.
func goLoop(t testing.TB) {
	old := useGroups
	useGroups = false
	t.Cleanup(func() { useGroups = old })
}

// TestGoLoop runs the suites that pin counts and spans once more on the
// Go loop; the plain run takes the AVX2 kernel wherever the CPU has it.
func TestGoLoop(t *testing.T) {
	goLoop(t)
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"Equivalence", TestDetectEquivalenceAcrossPaths},
		{"ChunkSplits", TestStreamArbitraryChunkSplitsMatchOneShot},
		{"MidNGram", TestStreamMidNGramBoundarySplits},
		{"MaskKernelOnCorpus", TestMaskKernelMatchesReferenceOnCorpus},
		{"StreamMatchesBatch", TestStreamMatchesBatch},
		{"SpansTiling", TestDetectSpansTiling},
		{"SpansSingleWindow", TestDetectSpansSingleWindowAgreesWithDetect},
		{"SpanStreamSplits", TestSpanStreamMatchesOneShot},
		{"SpanStreamIncremental", TestSpanStreamIncrementalFinalization},
		{"SpansReferenceViterbi", TestDetectSpansMatchesReferenceViterbi},
		{"SpansPenaltyOverDocument", TestDetectSpansPenaltyOverDocumentIsDetect},
		{"SpansManyLanguages", TestDetectSpansManyLanguages},
	} {
		t.Run(tc.name, tc.test)
	}
}

// TestGoLoopKernelCountSeeds checks FuzzKernelCount's seed inputs on
// the Go loop: whole-document and segmenting streams, written in three
// pieces, against the staged reference.
func TestGoLoopKernelCountSeeds(t *testing.T) {
	goLoop(t)
	base, six := trainMini(t, Config{TopT: 800}), sixGramSet(t)
	dets := []*Detector{mustDetector(t, six)}
	for _, b := range equivBackends() {
		dets = append(dets, mustDetector(t, base, withBackend(b)))
	}
	seeds := []struct {
		data []byte
		a, b int
	}{
		{[]byte(""), 0, 0},
		{[]byte("the quick brown fox"), 2, 9},
		{[]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"), 7, 3},
		{getMiniCorpus(t).Test["fi"][0].Text, 301, 1000},
	}
	for _, seed := range seeds {
		seed.a, seed.b = seed.a%(len(seed.data)+1), seed.b%(len(seed.data)+1)
		if seed.a > seed.b {
			seed.a, seed.b = seed.b, seed.a
		}
		for _, d := range dets {
			want := classify(d, seed.data)
			spans, err := d.NewSpanStream(SegmentConfig{Window: 64, Stride: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Stream{d.NewStream(), spans} {
				s.Write(seed.data[:seed.a])
				s.Write(seed.data[seed.a:seed.b])
				s.Write(seed.data[seed.b:])
				if got, n := s.AppendCounts(nil), s.Match().NGrams; n != want.NGrams || !reflect.DeepEqual(got, want.Counts) {
					t.Errorf("%s, segmenting %v, %d bytes: counts %v over %d grams; reference %v over %d",
						rowName(d), s.cfg.Stride > 0, len(seed.data), got, n, want.Counts, want.NGrams)
				}
			}
		}
	}
}

// TestSpansSameOnBothPaths segments the golden segmentation set
// (testdata/golden_segments.json, whose F1 floors the root package
// gates) on the kernel and on the Go loop: the spans must be identical,
// so the floors hold on both.
func TestSpansSameOnBothPaths(t *testing.T) {
	if !useGroups {
		t.Skip("no AVX2 kernel on this CPU: the Go loop is the only path")
	}
	if testing.Short() {
		t.Skip("generates and segments the golden corpus")
	}
	raw, err := os.ReadFile("../../testdata/golden_segments.json")
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Corpus  corpus.Config
		Mixed   corpus.MixedConfig
		Config  Config
		Segment SegmentConfig
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	corp, err := corpus.Generate(g.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := trainTexts(g.Config, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.GenerateMixed(g.Mixed)
	if err != nil {
		t.Fatal(err)
	}
	det := mustDetector(t, ps)
	segment := func() (all [][]Span) {
		for _, d := range docs {
			spans, err := det.DetectSpans(d.Text, g.Segment)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, spans)
		}
		return all
	}
	kernel := segment()
	t.Logf("%d documents, %d spans in the first", len(docs), len(kernel[0]))
	goLoop(t)
	if loop := segment(); !reflect.DeepEqual(kernel, loop) {
		t.Fatal("the golden documents segment differently on the kernel and the Go loop")
	}
}

// goGroups is the Go loop's answer to countGroups: countLanes per
// 16-byte group.
func goGroups(plane []uint16, reg uint64, p []byte, out []uint64) uint64 {
	for g := range len(p) / groupLen {
		reg, out[2*g], out[2*g+1] = countLanes(plane, reg, p[g*groupLen:][:groupLen])
	}
	return reg
}

// TestTranslateAllBytes checks the kernel's vector translation against
// alphabet.Translate for all 256 bytes, through two 1-gram planes that
// spell each code out: plane A sets bit code&15, plane B bit code>>4,
// so a group of one repeated byte counts 16 in exactly those lanes.
// Three groups take the 32-byte step's two lanes and the 16-byte tail.
func TestTranslateAllBytes(t *testing.T) {
	if !useGroups {
		t.Skip("no AVX2 kernel on this CPU")
	}
	var a, b [32]uint16
	for c := range a {
		a[c], b[c] = 1<<(c&15), 1<<(c>>4)
	}
	lane := func(lo, hi uint64) int {
		for j, w := range [2]uint64{lo, hi} {
			if w != 0 {
				return 8*j + bits.TrailingZeros64(w)/8
			}
		}
		return -1
	}
	var outA, outB [6]uint64
	for v := range 256 {
		p := bytes.Repeat([]byte{byte(v)}, 3*groupLen)
		countGroups(a[:], 0, p, outA[:])
		countGroups(b[:], 0, p, outB[:])
		want := int(alphabet.Translate(byte(v)))
		for g := range 3 {
			got := lane(outA[2*g], outA[2*g+1]) | lane(outB[2*g], outB[2*g+1])<<4
			if got != want || bits.OnesCount64(outA[2*g]|outA[2*g+1]) != 1 {
				t.Fatalf("byte %#02x, group %d: kernel code %d (lanes %#x %#x), Translate %d", v, g, got, outA[2*g], outA[2*g+1], want)
			}
		}
	}
}

// groupPlanes holds FuzzCountGroups' plane per n, made on first use:
// zeroed, with a mask written at each index a document reaches.
var groupPlanes [ngram.MaxN][]uint16

// planeFor returns the plane for n with a nonzero mask, a function of
// the index, at every n-gram p completes after reg: an index the
// kernel got wrong reads another mask or an untouched zero. At n = 5
// the plane spans 64 MiB but only the pages it touches are resident.
func planeFor(n int, reg uint64, p []byte) []uint16 {
	if groupPlanes[n-1] == nil {
		groupPlanes[n-1] = make([]uint16, 1<<ngram.Bits(n))
	}
	plane := groupPlanes[n-1]
	w := ngram.Window{N: n, Reg: reg, Filled: n - 1}
	for _, g := range w.FeedBytes(nil, p) {
		plane[g] = uint16((g+1)*0x9e3779b1>>16) | 1
	}
	return plane
}

// FuzzCountGroups checks the AVX2 kernel against the Go loop: random
// bytes after a random full register, at n from 1 to 5, counted in two
// calls cut at a random group, must give the same lane words, register
// and counts; the counts also match a count straight from the plane.
func FuzzCountGroups(f *testing.F) {
	if !useGroups {
		f.Skip("no AVX2 kernel on this CPU")
	}
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint64(0), uint8(3), uint16(1))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02 \xc0\xdf\xe0\xff\xd7\xf7 M\xfcnchen \xc6sop"), uint64(0x123456789abcdef), uint8(4), uint16(2))
	f.Add(bytes.Repeat([]byte("kielten tunnistus "), 80), ^uint64(0), uint8(0), uint16(30))
	f.Add(bytes.Repeat([]byte{0xfe, 'a', 0x7f}, 400), uint64(26*0x4210842108421), uint8(1), uint16(65))
	f.Fuzz(func(t *testing.T, data []byte, reg uint64, n uint8, split uint16) {
		n = n%5 + 1
		p := data[:min(len(data), 2*maxGroups*groupLen)/groupLen*groupLen]
		plane := planeFor(int(n), reg, p)
		groups := len(p) / groupLen
		want := make([]uint64, 2*groups)
		wantReg := goGroups(plane, reg, p, want)

		got := make([]uint64, 2*groups)
		cut := int(split) % (groups + 1)
		r := reg
		for _, part := range [][2]int{{0, cut}, {cut, groups}} {
			for g := part[0]; g < part[1]; {
				k := min(part[1]-g, maxGroups)
				r = countGroups(plane, r, p[g*groupLen:(g+k)*groupLen], got[2*g:2*(g+k)])
				g += k
			}
		}
		if r != wantReg {
			t.Fatalf("n=%d, %d groups cut at %d: kernel register %#x, Go loop %#x", n, groups, cut, r, wantReg)
		}
		for g := range groups {
			if got[2*g] != want[2*g] || got[2*g+1] != want[2*g+1] {
				t.Fatalf("n=%d, %d groups cut at %d: group %d lanes %#x %#x, Go loop %#x %#x", n, groups, cut, g, got[2*g], got[2*g+1], want[2*g], want[2*g+1])
			}
		}
		counts, ref := make([]int, maskPlaneLangs), make([]int, maskPlaneLangs)
		for g := range groups {
			addLanes(counts, got[2*g], got[2*g+1])
		}
		w := ngram.Window{N: int(n), Reg: reg, Filled: int(n) - 1}
		for _, g := range w.FeedBytes(nil, p) {
			for j := range ref {
				ref[j] += int(plane[g] >> j & 1)
			}
		}
		if !reflect.DeepEqual(counts, ref) {
			t.Fatalf("n=%d, %d groups: kernel counts %v, plane %v", n, groups, counts, ref)
		}
	})
}
