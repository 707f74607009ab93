// Package vhdl generates synthesizable VHDL for a trained classifier
// configuration — the artifact the paper actually built ("The
// application was coded in VHDL and compiled through the Altera Quartus
// II tool chain", §4; "easily ported to a comparable Xilinx FPGA").
//
// The generator emits, for a classifier of p languages with k hash
// functions over m-bit vectors:
//
//   - an alphabet conversion entity (the 256→5-bit table of §3.3 as a
//     case statement);
//   - one H3 hash entity per (language, hash) pair, the random matrix
//     baked in as XOR reductions — each output bit is the XOR of the
//     input bits whose matrix rows have that bit set (Figure 1's "k
//     hash functions" blocks);
//   - a dual-port RAM template sized 1×m (inference-style, mapping to
//     M4K blocks);
//   - a per-language Bloom filter entity wiring hashes to RAM ports
//     and AND-reducing the read bits (Figure 1b);
//   - a classifier top with per-language match counters (Figure 2a).
//
// The output is deterministic for a given configuration and profile
// set, so hardware regeneration is reproducible. Tests validate
// structure (entity counts, port widths, XOR term counts against
// matrix population) — synthesis itself is outside this repository's
// scope.
package vhdl

import (
	"fmt"
	"io"
	"strings"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

// Generate writes the complete VHDL listing for a classifier of the
// configuration cfg over the languages langs, reading each language's
// H3 matrices from its Parallel Bloom Filter (filters[i] for langs[i],
// as bloom.ParallelFilters builds them).
func Generate(w io.Writer, cfg core.Config, langs []string, filters []*bloom.Parallel) error {
	if len(filters) != len(langs) {
		return fmt.Errorf("vhdl: %d filters for %d languages", len(filters), len(langs))
	}
	g := &generator{
		w:       w,
		cfg:     cfg,
		langs:   langs,
		filters: filters,
		inW:     int(ngram.Bits(cfg.N)),
		addrW:   addrWidth(cfg.MBits),
	}
	return g.run()
}

func addrWidth(m uint32) int {
	w := 0
	for 1<<w < int(m) {
		w++
	}
	return w
}

type generator struct {
	w       io.Writer
	cfg     core.Config
	langs   []string
	filters []*bloom.Parallel
	inW     int
	addrW   int
	err     error
}

func (g *generator) p(format string, args ...any) {
	if g.err != nil {
		return
	}
	_, g.err = fmt.Fprintf(g.w, format+"\n", args...)
}

func (g *generator) run() error {
	g.header()
	g.alphabetEntity()
	for li := range g.langs {
		for h := 0; h < g.cfg.K; h++ {
			g.hashEntity(li, h)
		}
	}
	g.ramEntity()
	for li := range g.langs {
		g.filterEntity(li)
	}
	g.topEntity()
	return g.err
}

func (g *generator) header() {
	g.p("-- Generated by bloomlang/internal/vhdl. DO NOT EDIT.")
	g.p("-- Parallel Bloom Filter n-gram language classifier")
	g.p("-- (Jacob & Gokhale, HPRCTA'07).")
	g.p("--")
	g.p("-- configuration: n=%d (input %d bits), k=%d, m=%d bits (%d-bit addresses),",
		g.cfg.N, g.inW, g.cfg.K, g.cfg.MBits, g.addrW)
	g.p("-- languages: %s", strings.Join(g.langs, ", "))
	g.p("")
	g.p("library ieee;")
	g.p("use ieee.std_logic_1164.all;")
	g.p("use ieee.numeric_std.all;")
	g.p("")
}

// alphabetEntity emits the 8-to-5-bit converter of §3.3.
func (g *generator) alphabetEntity() {
	g.p("entity alphabet_conv is")
	g.p("  port (")
	g.p("    char_in  : in  std_logic_vector(7 downto 0);")
	g.p("    code_out : out std_logic_vector(4 downto 0));")
	g.p("end entity alphabet_conv;")
	g.p("")
	g.p("architecture table of alphabet_conv is")
	g.p("begin")
	g.p("  process (char_in)")
	g.p("  begin")
	g.p("    case to_integer(unsigned(char_in)) is")
	// Group consecutive bytes with equal codes into `a to b` choices.
	start := 0
	cur := alphabet.Translate(0)
	for i := 1; i <= 256; i++ {
		var code alphabet.Code
		if i < 256 {
			code = alphabet.Translate(byte(i))
		}
		if i == 256 || code != cur {
			if cur != alphabet.Space { // space is the default branch
				if start == i-1 {
					g.p("      when %d => code_out <= \"%05b\";", start, cur)
				} else {
					g.p("      when %d to %d => code_out <= \"%05b\";", start, i-1, cur)
				}
			}
			start = i
			cur = code
		}
	}
	g.p("      when others => code_out <= \"00000\";  -- white space")
	g.p("    end case;")
	g.p("  end process;")
	g.p("end architecture table;")
	g.p("")
}

// hashEntity emits one H3 function as pure XOR logic: output bit j is
// the XOR of every input bit i whose matrix row has bit j set. This is
// why the family is "hardware friendly" — no arithmetic, just a tree
// of XOR gates per output bit.
func (g *generator) hashEntity(lang, h int) {
	name := g.hashName(lang, h)
	f := g.filters[lang].Func(h)
	g.p("entity %s is", name)
	g.p("  port (")
	g.p("    gram : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    addr : out std_logic_vector(%d downto 0));", g.addrW-1)
	g.p("end entity %s;", name)
	g.p("")
	g.p("architecture xor_tree of %s is", name)
	g.p("begin")
	for j := 0; j < g.addrW; j++ {
		var terms []string
		for i := 0; i < g.inW; i++ {
			if f.Row(uint(i))&(1<<uint(j)) != 0 {
				terms = append(terms, fmt.Sprintf("gram(%d)", i))
			}
		}
		if len(terms) == 0 {
			g.p("  addr(%d) <= '0';", j)
		} else {
			g.p("  addr(%d) <= %s;", j, strings.Join(terms, " xor "))
		}
	}
	g.p("end architecture xor_tree;")
	g.p("")
}

func (g *generator) hashName(lang, h int) string {
	return fmt.Sprintf("h3_%s_%d", sanitize(g.langs[lang]), h)
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ramEntity emits the 1×m dual-port RAM template that synthesis maps
// onto M4K blocks (§3.1: each hash function addresses an independent
// bit-vector "implemented with one or more physically distinct
// embedded RAMs"; §3.2: dual ports test two n-grams per cycle).
func (g *generator) ramEntity() {
	g.p("entity bitvector_ram is")
	g.p("  generic (ADDR_W : integer := %d);", g.addrW)
	g.p("  port (")
	g.p("    clk     : in  std_logic;")
	g.p("    -- programming port (Algorithm 1, Set)")
	g.p("    wr_en   : in  std_logic;")
	g.p("    wr_addr : in  std_logic_vector(ADDR_W-1 downto 0);")
	g.p("    -- two read ports (dual-ported embedded RAM, 2 n-grams/clock)")
	g.p("    rd_addr_a : in  std_logic_vector(ADDR_W-1 downto 0);")
	g.p("    rd_bit_a  : out std_logic;")
	g.p("    rd_addr_b : in  std_logic_vector(ADDR_W-1 downto 0);")
	g.p("    rd_bit_b  : out std_logic);")
	g.p("end entity bitvector_ram;")
	g.p("")
	g.p("architecture inferred of bitvector_ram is")
	g.p("  type bitvec_t is array (0 to 2**ADDR_W - 1) of std_logic;")
	g.p("  signal vec : bitvec_t := (others => '0');")
	g.p("begin")
	g.p("  process (clk)")
	g.p("  begin")
	g.p("    if rising_edge(clk) then")
	g.p("      if wr_en = '1' then")
	g.p("        vec(to_integer(unsigned(wr_addr))) <= '1';")
	g.p("      end if;")
	g.p("      rd_bit_a <= vec(to_integer(unsigned(rd_addr_a)));")
	g.p("      rd_bit_b <= vec(to_integer(unsigned(rd_addr_b)));")
	g.p("    end if;")
	g.p("  end process;")
	g.p("end architecture inferred;")
	g.p("")
}

// filterEntity wires one language's k hash units to k RAMs and
// AND-reduces the read bits — Figure 1b's test operation, dual-ported.
func (g *generator) filterEntity(lang int) {
	name := fmt.Sprintf("bloom_filter_%s", sanitize(g.langs[lang]))
	g.p("entity %s is", name)
	g.p("  port (")
	g.p("    clk      : in  std_logic;")
	g.p("    wr_en    : in  std_logic;")
	g.p("    wr_gram  : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    gram_a   : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    gram_b   : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    match_a  : out std_logic;")
	g.p("    match_b  : out std_logic);")
	g.p("end entity %s;", name)
	g.p("")
	g.p("architecture parallel of %s is", name)
	for h := 0; h < g.cfg.K; h++ {
		g.p("  signal wr_addr_%d, addr_a_%d, addr_b_%d : std_logic_vector(%d downto 0);", h, h, h, g.addrW-1)
		g.p("  signal bit_a_%d, bit_b_%d : std_logic;", h, h)
	}
	g.p("begin")
	for h := 0; h < g.cfg.K; h++ {
		hn := g.hashName(lang, h)
		g.p("  hash_wr_%d: entity work.%s port map (gram => wr_gram, addr => wr_addr_%d);", h, hn, h)
		g.p("  hash_a_%d:  entity work.%s port map (gram => gram_a, addr => addr_a_%d);", h, hn, h)
		g.p("  hash_b_%d:  entity work.%s port map (gram => gram_b, addr => addr_b_%d);", h, hn, h)
		g.p("  ram_%d: entity work.bitvector_ram", h)
		g.p("    port map (clk => clk, wr_en => wr_en, wr_addr => wr_addr_%d,", h)
		g.p("              rd_addr_a => addr_a_%d, rd_bit_a => bit_a_%d,", h, h)
		g.p("              rd_addr_b => addr_b_%d, rd_bit_b => bit_b_%d);", h, h)
	}
	andTerms := func(prefix string) string {
		terms := make([]string, g.cfg.K)
		for h := 0; h < g.cfg.K; h++ {
			terms[h] = fmt.Sprintf("%s_%d", prefix, h)
		}
		return strings.Join(terms, " and ")
	}
	g.p("  match_a <= %s;", andTerms("bit_a"))
	g.p("  match_b <= %s;", andTerms("bit_b"))
	g.p("end architecture parallel;")
	g.p("")
}

// topEntity emits the multiple-language classifier of Figure 2a: p
// filters in parallel, two n-grams per clock, per-language match
// counters read after End-of-Document.
func (g *generator) topEntity() {
	g.p("entity classifier_top is")
	g.p("  port (")
	g.p("    clk        : in  std_logic;")
	g.p("    reset      : in  std_logic;")
	g.p("    -- programming interface (preprocessing step)")
	g.p("    prog_en    : in  std_logic;")
	g.p("    prog_lang  : in  integer range 0 to %d;", len(g.langs)-1)
	g.p("    prog_gram  : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    -- two document n-grams per clock (dual-ported RAMs)")
	g.p("    gram_a     : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    gram_b     : in  std_logic_vector(%d downto 0);", g.inW-1)
	g.p("    gram_valid : in  std_logic_vector(1 downto 0);")
	for li, lang := range g.langs {
		comma := ";"
		if li == len(g.langs)-1 {
			comma = ");"
		}
		g.p("    count_%s    : out unsigned(31 downto 0)%s", sanitize(lang), comma)
	}
	g.p("end entity classifier_top;")
	g.p("")
	g.p("architecture rtl of classifier_top is")
	for _, lang := range g.langs {
		s := sanitize(lang)
		g.p("  signal match_a_%s, match_b_%s : std_logic;", s, s)
		g.p("  signal cnt_%s : unsigned(31 downto 0);", s)
		g.p("  signal wr_%s : std_logic;", s)
	}
	g.p("begin")
	for li, lang := range g.langs {
		s := sanitize(lang)
		g.p("  wr_%s <= prog_en when prog_lang = %d else '0';", s, li)
		g.p("  filter_%s: entity work.bloom_filter_%s", s, s)
		g.p("    port map (clk => clk, wr_en => wr_%s, wr_gram => prog_gram,", s)
		g.p("              gram_a => gram_a, gram_b => gram_b,")
		g.p("              match_a => match_a_%s, match_b => match_b_%s);", s, s)
	}
	g.p("")
	g.p("  counters: process (clk)")
	g.p("  begin")
	g.p("    if rising_edge(clk) then")
	g.p("      if reset = '1' then")
	for _, lang := range g.langs {
		g.p("        cnt_%s <= (others => '0');", sanitize(lang))
	}
	g.p("      else")
	for _, lang := range g.langs {
		s := sanitize(lang)
		g.p("        if gram_valid(0) = '1' and match_a_%s = '1' then cnt_%s <= cnt_%s + 1; end if;", s, s, s)
		g.p("        if gram_valid(1) = '1' and match_b_%s = '1' then cnt_%s <= cnt_%s + 1; end if;", s, s, s)
	}
	g.p("      end if;")
	g.p("    end if;")
	g.p("  end process;")
	g.p("")
	for _, lang := range g.langs {
		s := sanitize(lang)
		g.p("  count_%s <= cnt_%s;", s, s)
	}
	g.p("end architecture rtl;")
}
