package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"bloomlang/internal/core"
)

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
	if (err == nil) != (wantErr == nil) {
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
		if (err == nil) != (wantErr == nil) {
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

// TestLineReaderMatchesScanner: the /stream line reader splits a body
// into the lines bufio.Scanner with ScanLines splits it into under the
// same max-byte buffer — blank lines, one trailing '\r' dropped, the
// unterminated last line, and bufio.ErrTooLong for a line that fills
// the buffer — however the body's reads are cut.
func TestLineReaderMatchesScanner(t *testing.T) {
	bodies := []string{
		"", "\n", "\r\n", "a", "a\n", "a\r", "a\r\r\n", "\n\nab\n\n",
		"1234567\n", "12345678\n", "123456789\n", "1234567", "12345678", "123456789",
		"ab\ncd\r\nefghijk\nlmnopqrs\ntu", "abcdefg\nabcdefgh\nxy\n", "x\n123456789012345678\ny\n",
	}
	readers := map[string]func(string) io.Reader{
		"whole":    func(s string) io.Reader { return strings.NewReader(s) },
		"one-byte": func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"half":     func(s string) io.Reader { return iotest.HalfReader(strings.NewReader(s)) },
		"data-err": func(s string) io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
	}
	for _, max := range []int{8, 9, 16} {
		for _, body := range bodies {
			for name, reader := range readers {
				sc := bufio.NewScanner(reader(body))
				sc.Buffer(make([]byte, 0, max), max)
				var want []string
				for sc.Scan() {
					want = append(want, sc.Text())
				}
				wantErr := sc.Err()

				var got []string
				var gotErr error
				b := new(buffers)
				lines := b.lineReader(reader(body), max)
				for {
					line, ok := lines.next()
					if ok {
						got = append(got, string(line))
						continue
					}
					if err := lines.fill(); err != nil {
						if err != io.EOF {
							gotErr = err
						}
						break
					}
				}
				if !slices.Equal(got, want) || gotErr != wantErr {
					t.Errorf("max %d, %s reads of %q: lines %q err %v, Scanner %q err %v", max, name, body, got, gotErr, want, wantErr)
				}
			}
		}
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
