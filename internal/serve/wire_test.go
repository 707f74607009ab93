package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"unicode/utf16"
	"unicode/utf8"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// refDoc is the reference decoding of one document: what
// encoding/json makes of a bare string, null or an {"id", "text"}
// object.
type refDoc struct {
	ID   string
	Text string
}

func (d *refDoc) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &d.Text)
	}
	var obj struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	d.ID, d.Text = obj.ID, obj.Text
	return nil
}

// checkLineDecode holds the decoder's reading of one NDJSON line to
// json.Unmarshal's.
func checkLineDecode(t *testing.T, data []byte) {
	t.Helper()
	var want refDoc
	wantErr := json.Unmarshal(data, &want)
	var d decoder
	id, text, err := d.line(bytes.Clone(data))
	if (err == nil) != (wantErr == nil) || !sameSyntaxError(err, wantErr) {
		t.Fatalf("line %q: decoder err %v, encoding/json err %v", data, err, wantErr)
	}
	if err == nil && (string(id) != want.ID || string(text) != want.Text) {
		t.Fatalf("line %q: decoder id %q text %q, encoding/json id %q text %q", data, id, text, want.ID, want.Text)
	}
}

// checkBatchDecode holds the decoder's reading of one /batch body to
// json.Unmarshal's, with the document limit above and below the count.
func checkBatchDecode(t *testing.T, data []byte) {
	t.Helper()
	var want []refDoc
	wantErr := json.Unmarshal(data, &want)
	for _, limit := range []int{len(data), 1} {
		var d decoder
		ids, texts, n, err := d.batch(bytes.Clone(data), limit, nil, nil)
		if (err == nil) != (wantErr == nil) || !sameSyntaxError(err, wantErr) {
			t.Fatalf("body %q (limit %d): decoder err %v, encoding/json err %v", data, limit, err, wantErr)
		}
		if err != nil {
			continue
		}
		if n != len(want) || len(texts) != min(n, limit) || len(ids) != len(texts) {
			t.Fatalf("body %q (limit %d): decoder n %d with %d texts, encoding/json %d documents", data, limit, n, len(texts), len(want))
		}
		for i := range texts {
			if string(ids[i]) != want[i].ID || string(texts[i]) != want[i].Text {
				t.Fatalf("body %q doc %d: decoder id %q text %q, encoding/json id %q text %q", data, i, ids[i], texts[i], want[i].ID, want[i].Text)
			}
		}
	}
}

// sameSyntaxError reports whether err reads exactly as wantErr when
// encoding/json reports a syntax error in the input.
func sameSyntaxError(err, wantErr error) bool {
	var syntax *json.SyntaxError
	if !errors.As(wantErr, &syntax) {
		return true
	}
	return err != nil && err.Error() == wantErr.Error()
}

// checkEncode holds the encoder's Detection and Segmentation to
// json.Encoder's encoding of the same values. Codes is a language
// inventory without "" or duplicates; names are their names.
func checkEncode(t *testing.T, codes, names []string, d Detection, m core.Match, counts []int, spans []core.Span) {
	t.Helper()
	table := newLangTable(codes, names)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(d); err != nil {
		t.Fatal(err)
	}
	got := append(table.appendDetection(nil, []byte(d.ID), m, counts, spans, d.Error), '\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Detection %+v:\nencoder       %s\nencoding/json %s", d, got, want.Bytes())
	}
	seg := Segmentation{Bytes: m.NGrams, Window: m.Count, Stride: 7, Penalty: 3, Spans: d.Spans}
	if seg.Spans == nil {
		seg.Spans = []SpanDetection{}
	}
	want.Reset()
	if err := json.NewEncoder(&want).Encode(seg); err != nil {
		t.Fatal(err)
	}
	got = append(table.appendSegmentation(nil, m.NGrams, core.SegmentConfig{Window: m.Count, Stride: 7, Penalty: 3}, spans), '\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Segmentation %+v:\nencoder       %s\nencoding/json %s", seg, got, want.Bytes())
	}
}

// FuzzWireCodec is the codec's equivalence contract with
// encoding/json. The input runs through the decoder as an NDJSON line
// and as a /batch body: both decoders must accept or reject it alike
// and yield the same id and text bytes. The other arguments build a
// Detection (and a Segmentation) whose encoding must equal
// json.Encoder's byte for byte.
func FuzzWireCodec(f *testing.F) {
	for _, data := range []string{
		`{"id":"a\xffb","text":"caf\xe9"}`,
		`{"id":"<a>&\u2028 \u2029","text":"x"}`,
		"{\"id\":\"tab\\t\\u0001\\u001f\",\"text\":\"\\ud83d\\ude00 \\ud800 \\udc00\\ud800x \\ud800\\u0041\"}",
		`{"TEXT":"upper","text":"lower"}`,
		`{"text":"first","Text":"second","tExT":null}`,
		`{"ID":"k","Id":"\u212a","iD":""}`,
		`{"other":{"a":[1,-2.5e+3,true,false,null,{"b":"c"}]},"text":"t"}`,
		`{"text":"a","text":5}`,
		`{"text":{"nested":"no"}}`,
		`"bare \"string\" \\ \/ \b\f\n\r\t"`,
		`null`,
		` [ "one" , {"id":"2","text":"two"}, null ] `,
		`[]`,
		`[1]`,
		`[[],{}]`,
		`{"text":"x"} trailing`,
		`{"text":"x",}`,
		`{"text" "x"}`,
		`{"a":01}`,
		`{"a":-}`,
		`{"a":1.}`,
		`{"a":1e}`,
		`{"a":tru}`,
		`"\u12"`,
		`"\x"`,
		"\"ctl\x01\"",
		`[[[[[[[[[[]]]]]]]]]]`,
		"{\"text\":\"\xed\xa0\x80\xc3\xa9\xc3\"}",
		"",
		" ",
		`{"te\u0078t":"x"}`,
		`{"x":"a\"]},b","text":"t"}`,
		`{"text":"t","x":[1,{"y":"]"}]`,
		`{"text":"t","x":"un\"closed}`,
		`{"text":"t","x":true`,
		`{"text":"t","x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		`{"text":"t","x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		`[{"text":5},{"x":tru}]`,
		`{"text":nul}`,
		`["a",]`,
		`{"text":"a\u00e9\n\"b","x":01}`,
	} {
		f.Add([]byte(data), "id-1", "en", "English", 120, 37, 0.30833333333333335, 0.1, uint8(7))
	}
	f.Add([]byte(`{"text":"x"}`), "a\xffb<>&\u2028\x01", "e<s>", "Sp\u2029nish\xfe", 10000000, 1, 1e-7, 9.99e-7, uint8(3))
	f.Add([]byte(`"x"`), "", "fi", "", 0, 0, 1.0000001e-7, -0.0, uint8(6))
	f.Add([]byte(`[]`), "\\\"", "x\ty", "\"", 3, 3, 1e21, 123456789.125, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, id, lang, name string, ngrams, count int, score, margin float64, flags uint8) {
		checkLineDecode(t, data)
		checkBatchDecode(t, data)

		if math.IsNaN(score) || math.IsInf(score, 0) || math.IsNaN(margin) || math.IsInf(margin, 0) {
			return // encoding/json refuses them; scores are always finite
		}
		codes := []string{"en", "fi"}
		names := []string{core.LanguageName("en"), core.LanguageName("fi")}
		if lang != "" && lang != "en" && lang != "fi" {
			codes, names = append(codes, lang), append(names, name)
		}
		nameOf := func(code string) string {
			for i, c := range codes {
				if c == code {
					return names[i]
				}
			}
			return ""
		}
		m := core.Match{Lang: lang, NGrams: ngrams, Count: count, Score: score, Margin: margin, Unknown: flags&8 != 0}
		d := Detection{ID: id, Language: lang, Name: nameOf(lang), NGrams: ngrams, Count: count, Score: score, Margin: margin, Unknown: m.Unknown}
		var counts []int
		if flags&1 != 0 {
			d.Counts = map[string]int{}
			for i, c := range codes {
				counts = append(counts, count*(i+1)-ngrams)
				d.Counts[c] = counts[i]
			}
		}
		var spans []core.Span
		if flags&2 != 0 {
			for i, c := range []string{lang, "", codes[len(codes)-1]} {
				sp := core.Span{Start: i * count, End: (i + 1) * count, Lang: c, Score: score / float64(i+1), Margin: margin * float64(i), Unknown: c == ""}
				spans = append(spans, sp)
				d.Spans = append(d.Spans, SpanDetection{Start: sp.Start, End: sp.End, Language: c, Name: nameOf(c), Score: sp.Score, Margin: sp.Margin, Unknown: sp.Unknown})
			}
		}
		if flags&4 != 0 {
			d.Error = name + id
		}
		checkEncode(t, codes, names, d, m, counts, spans)
	})
}

// TestDecoderNestingLimit: the decoder shares encoding/json's nesting
// limit of 10000 open arrays and objects, counted from the top of the
// line or body.
func TestDecoderNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 2, maxDepth - 1, maxDepth, maxDepth + 1} {
		nested := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		checkLineDecode(t, []byte(`{"x":`+nested+`,"text":"t"}`))
		checkBatchDecode(t, []byte(`[{"x":`+nested+`}]`))
	}
}

// TestQueryFlagMatchesURLValues holds the raw-query reader to what
// strconv.ParseBool makes of url.Values.Get on the same query.
func TestQueryFlagMatchesURLValues(t *testing.T) {
	for _, q := range []string{
		"", "spans=1", "spans=true", "spans=0", "spans=", "spans", "spans=yes",
		"a=b&spans=1", "spans=1&spans=0", "spans=0&spans=1", "spans;x=1&spans=1",
		"sp%61ns=1", "spans=%31", "spans=%zz&spans=1", "spans+=1", "x=1;spans=1",
		"&&spans=T", "spansx=1", "xspans=1&spans=FALSE",
	} {
		v, _ := url.ParseQuery(q)
		b, err := strconv.ParseBool(v.Get("spans"))
		want := err == nil && b
		r := &http.Request{URL: &url.URL{RawQuery: q}}
		if got := queryFlag(r, "spans"); got != want {
			t.Errorf("query %q: flag %v, url.Values says %v", q, got, want)
		}
	}
}

// clientText encodes Latin-1 corpus text as the UTF-8 a JSON client
// sends.
func clientText(b []byte) string {
	r := make([]rune, len(b))
	for i, c := range b {
		r[i] = rune(c)
	}
	return string(r)
}

// escapeNonASCII writes every non-ASCII character of the JSON text js
// as a \uXXXX escape, as Python's json.dumps does by default.
func escapeNonASCII(js []byte) []byte {
	var out []byte
	for _, r := range string(js) {
		if r < utf8.RuneSelf {
			out = append(out, byte(r))
			continue
		}
		for _, u := range utf16.Encode([]rune{r}) {
			out = fmt.Appendf(out, `\u%04x`, u)
		}
	}
	return out
}

// clientDocs returns documents built the way the serving benchmark's
// clients build them: json.Marshal of {id, text} over
// corpus.GenerateMixed documents and over 5–50-word snippets of every
// language, the text encoded as UTF-8.
func clientDocs(tb testing.TB) [][]byte {
	tb.Helper()
	type item struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	marshal := func(id, text string) []byte {
		doc, err := json.Marshal(item{id, text})
		if err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	mixed, err := corpus.GenerateMixed(corpus.MixedConfig{Docs: 12, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	var docs [][]byte
	for _, d := range mixed {
		docs = append(docs, marshal(fmt.Sprintf("m%d", d.ID), clientText(d.Text)))
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for _, lang := range corpus.Languages() {
		spec, _ := corpus.ByCode(lang)
		gen := corpus.NewGenerator(spec, 5)
		for i := range 4 {
			words := bytes.Fields(gen.Document(100))
			snippet := bytes.Join(words[:min(len(words), 5+rng.IntN(46))], []byte{' '})
			docs = append(docs, marshal(fmt.Sprintf("b%s-%d", lang, i), clientText(snippet)))
		}
	}
	return docs
}

// TestDecoderReadsClientDocumentsInPlace: /stream lines and /batch
// bodies of the documents JSON clients send — json.Marshal's UTF-8, or
// every non-ASCII letter escaped — decode as encoding/json decodes
// them and with no allocation, so the fast path reads them all and
// none reaches the encoding/json fallback.
func TestDecoderReadsClientDocumentsInPlace(t *testing.T) {
	var docs [][]byte
	for _, doc := range clientDocs(t) {
		docs = append(docs, doc, escapeNonASCII(doc))
	}
	var d decoder
	for _, doc := range docs {
		checkLineDecode(t, doc)
		if a := testing.AllocsPerRun(10, func() { d.line(doc) }); a != 0 {
			t.Fatalf("line %.60q...: %.1f allocations, want 0", doc, a)
		}
	}
	ids, texts := make([][]byte, 0, 32), make([][]byte, 0, 32)
	for start := 0; start < len(docs); start += 32 {
		body := fmt.Appendf(nil, "[%s]", bytes.Join(docs[start:min(start+32, len(docs))], []byte(",")))
		checkBatchDecode(t, body)
		if a := testing.AllocsPerRun(10, func() { d.batch(body, 32, ids, texts) }); a != 0 {
			t.Fatalf("body of %d documents: %.1f allocations, want 0", min(32, len(docs)-start), a)
		}
	}
}

// BenchmarkServeDecode times the /batch decoder on 10 MiB bodies:
// documents as clients send them, on the fast path — short plain ones,
// and corpus text as UTF-8 or with every non-ASCII letter escaped —
// and crafted bodies that the fast path leaves to encoding/json, whose
// cost lies in values of other keys (small numbers, strings, one large
// array, values 5000 levels deep) or in a syntax error at the last
// byte.
func BenchmarkServeDecode(b *testing.B) {
	const size = 10 << 20
	array := func(elem string) []byte {
		body := append(make([]byte, 0, size+len(elem)+1), '[')
		for len(body) < size {
			body = append(append(body, elem...), ',')
		}
		body[len(body)-1] = ']'
		return body
	}
	text := strings.Repeat("el consejo adopta las medidas ", 10)
	doc := `{"id":"doc-1","text":"` + text + `"}`
	docs := clientDocs(b)
	client := string(bytes.Join(docs, []byte(",")))
	deep := strings.Repeat("[", 5000) + strings.Repeat("]", 5000)
	for _, shape := range []struct {
		name string
		body func() []byte
	}{
		{"docs", func() []byte { return array(doc) }},
		{"client-utf8", func() []byte { return array(client) }},
		{"client-escaped", func() []byte { return array(string(escapeNonASCII([]byte(client)))) }},
		{"numbers", func() []byte { return array(`{"x":1}`) }},
		{"strings", func() []byte { return array(`{"x":"` + text + `"}`) }},
		{"one-array", func() []byte { return []byte(`[{"x":` + string(array(`"a",1`)) + `}]`) }},
		{"nested", func() []byte { return array(`{"x":` + deep + `}`) }},
		{"error-at-end", func() []byte {
			body := array(doc)
			body[len(body)-1] = '}'
			return body
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			body := shape.body()
			wantErr := shape.name == "error-at-end"
			var d decoder
			var ids, texts [][]byte
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				var err error
				ids, texts, _, err = d.batch(body, math.MaxInt, ids[:0], texts[:0])
				if (err != nil) != wantErr {
					b.Fatalf("err %v", err)
				}
			}
		})
	}
}
