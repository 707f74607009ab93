package vhdl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
)

func testProfiles(t *testing.T, k int, mBits uint32) *core.ProfileSet {
	t.Helper()
	cfg := core.Config{TopT: 200, K: k, MBits: mBits, Seed: 5}
	ps, err := core.TrainFromTexts(cfg, map[string][][]byte{
		"en": {[]byte("the quick brown fox jumps over the lazy dog repeatedly and often")},
		"fi": {[]byte("nopea ruskea kettu hyppii laiskan koiran yli usein ja uudelleen")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func filters(t *testing.T, ps *core.ProfileSet) []*bloom.Parallel {
	t.Helper()
	fs, err := bloom.ParallelFilters(ps)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func generate(t *testing.T, ps *core.ProfileSet) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Generate(&buf, ps.Config, ps.Languages(), filters(t, ps)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestGeneratedEntities(t *testing.T) {
	ps := testProfiles(t, 4, 16*1024)
	src := generate(t, ps)
	// One alphabet converter, one RAM template, one top.
	for _, entity := range []string{"alphabet_conv", "bitvector_ram", "classifier_top"} {
		if n := strings.Count(src, "entity "+entity+" is"); n != 1 {
			t.Errorf("entity %s declared %d times, want 1", entity, n)
		}
	}
	// k hash entities per language, one filter per language.
	for _, lang := range []string{"en", "fi"} {
		if n := strings.Count(src, "entity bloom_filter_"+lang+" is"); n != 1 {
			t.Errorf("bloom_filter_%s declared %d times", lang, n)
		}
		for h := 0; h < 4; h++ {
			name := fmt.Sprintf("entity h3_%s_%d is", lang, h)
			if n := strings.Count(src, name); n != 1 {
				t.Errorf("%q declared %d times", name, n)
			}
		}
	}
}

func TestGeneratedPortWidths(t *testing.T) {
	ps := testProfiles(t, 4, 16*1024)
	src := generate(t, ps)
	// 4-gram input: 20 bits -> "19 downto 0"; m=16Kbit -> 14-bit
	// addresses -> "13 downto 0".
	if !strings.Contains(src, "gram : in  std_logic_vector(19 downto 0)") {
		t.Error("hash input width is not 20 bits")
	}
	if !strings.Contains(src, "addr : out std_logic_vector(13 downto 0)") {
		t.Error("hash output width is not 14 bits")
	}
	if !strings.Contains(src, "generic (ADDR_W : integer := 14)") {
		t.Error("RAM address width is not 14")
	}
}

func TestGeneratedWidthsFollowConfig(t *testing.T) {
	ps := testProfiles(t, 6, 4*1024)
	src := generate(t, ps)
	// m=4Kbit -> 12-bit addresses; 6 hash entities per language.
	if !strings.Contains(src, "addr : out std_logic_vector(11 downto 0)") {
		t.Error("4Kbit vectors should give 12-bit addresses")
	}
	for h := 0; h < 6; h++ {
		if !strings.Contains(src, fmt.Sprintf("entity h3_en_%d is", h)) {
			t.Errorf("hash entity h3_en_%d missing", h)
		}
	}
	if strings.Contains(src, "entity h3_en_6 is") {
		t.Error("unexpected seventh hash entity")
	}
}

// Every XOR expression in a hash entity must reference exactly the
// input bits whose matrix rows have that output bit set.
func TestHashXORTermsMatchMatrix(t *testing.T) {
	ps := testProfiles(t, 2, 4*1024)
	src := generate(t, ps)
	f := filters(t, ps)[0].Func(0) // language "en", hash 0
	// Count expected terms for output bit 0.
	expected := 0
	for i := uint(0); i < f.InputBits(); i++ {
		if f.Row(i)&1 != 0 {
			expected++
		}
	}
	// Find the entity body for h3_en_0 and its addr(0) line.
	start := strings.Index(src, "architecture xor_tree of h3_en_0 is")
	if start < 0 {
		t.Fatal("h3_en_0 architecture missing")
	}
	body := src[start:]
	end := strings.Index(body, "end architecture")
	body = body[:end]
	var line string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, "addr(0) <=") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatal("addr(0) assignment missing")
	}
	got := strings.Count(line, "gram(")
	if expected == 0 {
		if !strings.Contains(line, "'0'") {
			t.Errorf("empty row should assign '0', got %q", line)
		}
	} else if got != expected {
		t.Errorf("addr(0) has %d XOR terms, matrix says %d", got, expected)
	}
}

func TestGeneratedDeterministic(t *testing.T) {
	a := generate(t, testProfiles(t, 3, 8*1024))
	b := generate(t, testProfiles(t, 3, 8*1024))
	if a != b {
		t.Error("generation is not deterministic for identical classifiers")
	}
}

func TestAlphabetCaseStatement(t *testing.T) {
	ps := testProfiles(t, 2, 4*1024)
	src := generate(t, ps)
	// 'A' (65) and 'a' (97) fold to code 1; 'Z' (90) and 'z' (122) to 26.
	for _, want := range []string{
		"when 65 => code_out <= \"00001\";",
		"when 97 => code_out <= \"00001\";",
		"when 90 => code_out <= \"11010\";",
		"when 122 => code_out <= \"11010\";",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("alphabet table missing %q", want)
		}
	}
	// Consecutive accented bytes with the same base letter group into a
	// range: À..Å plus Æ (192..198) all fold to A.
	if !strings.Contains(src, "when 192 to 198 => code_out <= \"00001\";") {
		t.Error("accented A block not grouped to code 1")
	}
	if !strings.Contains(src, "when others => code_out <= \"00000\"") {
		t.Error("white-space default missing")
	}
}

func TestTopCountersPerLanguage(t *testing.T) {
	ps := testProfiles(t, 2, 4*1024)
	src := generate(t, ps)
	for _, lang := range []string{"en", "fi"} {
		if !strings.Contains(src, "count_"+lang) {
			t.Errorf("top entity missing counter for %s", lang)
		}
	}
	// Both gram slots must gate on their valid bits.
	if !strings.Contains(src, "gram_valid(0) = '1'") || !strings.Contains(src, "gram_valid(1) = '1'") {
		t.Error("counters do not gate on gram_valid")
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("pt-BR") != "pt_BR" {
		t.Errorf("sanitize(pt-BR) = %q", sanitize("pt-BR"))
	}
	if sanitize("en") != "en" {
		t.Errorf("sanitize(en) = %q", sanitize("en"))
	}
}
