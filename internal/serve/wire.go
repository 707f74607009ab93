package serve

// The wire codec of the document endpoints. The decoder reads a
// /stream line or a /batch body on a fast path when it holds only what
// JSON clients send: documents that are a JSON string, null, or an
// object whose keys are exactly "id" and "text" and hold a string or
// null, alone or in an array, with whitespace between the tokens. That
// path walks the input once and yields each document's id and text as
// byte slices of the input, or, for a string with an escape, built in
// a scratch buffer; it never writes into the input. Every other input
// (another key, a key in another case, a value of another type, a
// string holding invalid UTF-8, a syntax error) goes whole to
// encoding/json: json.Valid checks it, a malformed one is reported
// with encoding/json's own syntax error, and one json.Decoder reads
// the documents of a valid one, one element at a time. The encoder
// appends Detection, SpanDetection and Segmentation JSON straight from
// core.Match and core.Span. Both are held to encoding/json: the
// decoder accepts exactly what json.Unmarshal accepts into the
// document shape and yields the same bytes, and the encoder writes the
// bytes json.Encoder.Encode writes. FuzzWireCodec checks both halves
// against encoding/json.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"bloomlang/internal/core"
)

// decoder decodes documents from one NDJSON line or one /batch body.
// A document is a JSON string (its text), null (an empty document), or
// an object whose keys equal "id" or "text" under bytes.EqualFold and
// hold a string or null; the last such key wins, null leaves the field
// as it was, and every other key is ignored. Yielded slices stay valid
// until buf or scratch is reused.
type decoder struct {
	buf     []byte
	pos     int
	scratch []byte
}

func (d *decoder) reset(buf []byte) {
	d.buf, d.pos = buf, 0
	d.scratch = d.scratch[:0]
}

// line decodes one NDJSON document line.
func (d *decoder) line(line []byte) (id, text []byte, err error) {
	d.reset(line)
	d.ws()
	id, text, ok := d.doc()
	if ok && d.end() {
		return id, text, nil
	}
	ids, texts, _, err := d.fallback(line, false, 1, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return ids[0], texts[0], nil
}

// batch decodes a /batch body: a JSON array of documents, or null for
// none. It appends the ids and texts of the first limit documents to
// ids and texts and returns the number of documents in the body; the
// body is validated whole even past the limit, so a malformed body is
// reported as malformed rather than as too large.
func (d *decoder) batch(body []byte, limit int, ids, texts [][]byte) ([][]byte, [][]byte, int, error) {
	d.reset(body)
	d.ws()
	gotIDs, gotTexts, n, ok := ids, texts, 0, false
	switch d.peek() {
	case 'n':
		ok = d.lit(litNull)
	case '[':
		gotIDs, gotTexts, n, ok = d.docs(limit, ids, texts)
	}
	if ok && d.end() {
		return gotIDs, gotTexts, n, nil
	}
	return d.fallback(body, true, limit, gotIDs[:len(ids)], gotTexts[:len(texts)])
}

// docs reads the array of documents at d.pos on the fast path,
// appending the ids and texts of the first limit to ids and texts.
func (d *decoder) docs(limit int, ids, texts [][]byte) ([][]byte, [][]byte, int, bool) {
	d.pos++
	d.ws()
	if d.peek() == ']' {
		d.pos++
		return ids, texts, 0, true
	}
	for n := 0; ; {
		d.ws()
		id, text, ok := d.doc()
		if !ok {
			return ids, texts, n, false
		}
		if n < limit {
			ids, texts = append(ids, id), append(texts, text)
		}
		n++
		d.ws()
		switch d.peek() {
		case ']':
			d.pos++
			return ids, texts, n, true
		case ',':
			d.pos++
		default:
			return ids, texts, n, false
		}
	}
}

// doc reads the document at d.pos on the fast path.
func (d *decoder) doc() (id, text []byte, ok bool) {
	switch d.peek() {
	case '"':
		text, ok = d.str()
		return nil, text, ok
	case 'n':
		return nil, nil, d.lit(litNull)
	case '{':
	default:
		return nil, nil, false
	}
	d.pos++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil, nil, true
	}
	for {
		dst := &text
		if !d.lit(keyText) {
			if !d.lit(keyID) {
				return nil, nil, false
			}
			dst = &id
		}
		d.ws()
		if d.peek() != ':' {
			return nil, nil, false
		}
		d.pos++
		d.ws()
		if d.peek() == '"' {
			if *dst, ok = d.str(); !ok {
				return nil, nil, false
			}
		} else if !d.lit(litNull) { // null leaves the field as it was
			return nil, nil, false
		}
		d.ws()
		switch d.peek() {
		case '}':
			d.pos++
			return id, text, true
		case ',':
			d.pos++
			d.ws()
		default:
			return nil, nil, false
		}
	}
}

var litNull, keyText, keyID = []byte("null"), []byte(`"text"`), []byte(`"id"`)

// lit consumes s when the input at d.pos starts with it.
func (d *decoder) lit(s []byte) bool {
	ok := bytes.HasPrefix(d.buf[d.pos:], s)
	if ok {
		d.pos += len(s)
	}
	return ok
}

// str consumes the JSON string at d.pos and returns its value as
// encoding/json unquotes it: escapes decoded, and a UTF-16 surrogate
// escape that does not pair with the next escape replaced by U+FFFD. A
// string without escapes is a slice of buf; any other is built in
// scratch. ok is false for a string the fast path leaves to
// encoding/json: a malformed one, or one holding invalid UTF-8.
func (d *decoder) str() (v []byte, ok bool) {
	buf := d.buf
	start := d.pos + 1
	r := start   // read position
	seg := start // first byte read but not yet copied to scratch
	built := -1  // the value's offset in scratch once it is built there
	for {
		r = skipVerbatim(buf, r)
		if r == len(buf) {
			return nil, false
		}
		c := buf[r]
		if c >= utf8.RuneSelf {
			if c >= 0xC2 && c < 0xE0 && r+1 < len(buf) && buf[r+1]&0xC0 == 0x80 {
				r += 2 // a well-formed two-byte rune
				continue
			}
			rr, size := utf8.DecodeRune(buf[r:])
			if rr == utf8.RuneError && size == 1 {
				return nil, false
			}
			r += size
			continue
		}
		switch c {
		case '"':
			d.pos = r + 1
			if built < 0 {
				return buf[start:r], true
			}
			d.scratch = append(d.scratch, buf[seg:r]...)
			return d.scratch[built:], true
		case '\\':
			rr, n, ok := unescapeAt(buf[r:])
			if !ok {
				return nil, false
			}
			if built < 0 {
				built = len(d.scratch)
			}
			d.scratch = utf8.AppendRune(append(d.scratch, buf[seg:r]...), rr)
			r += n
			seg = r
		default:
			return nil, false // a control character
		}
	}
}

// skipVerbatim returns the index of the first byte at or after i that
// strSafe does not mark, testing eight bytes at a time while none
// needs a look: a word holds such a byte when one of its bytes has the
// high bit set, is below 0x20, or equals '"' or '\\' (is zero after
// an XOR).
func skipVerbatim(buf []byte, i int) int {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(buf); i += 8 {
		x := binary.LittleEndian.Uint64(buf[i:])
		q, b := x^(lo*'"'), x^(lo*'\\')
		if (x|(x-lo*' ')&^x|(q-lo)&^q|(b-lo)&^b)&hi != 0 {
			break
		}
	}
	for i < len(buf) && strSafe[buf[i]] {
		i++
	}
	return i
}

// strSafe marks the bytes a JSON string holds verbatim and the decoder
// passes over in its fast loop: printable ASCII but '"' and '\\'.
var strSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescapeAt decodes the escape sequence that starts s (s[0] == '\\')
// and returns the rune it stands for and its length. A \u escape of a
// UTF-16 surrogate pairs with an immediately following \u escape, as
// encoding/json pairs them; one that does not pair is U+FFFD and leaves
// the next escape to be decoded on its own. ok is false for a
// malformed escape.
func unescapeAt(s []byte) (rr rune, n int, ok bool) {
	if len(s) < 2 {
		return 0, 0, false
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2, true
	case 'b':
		return '\b', 2, true
	case 'f':
		return '\f', 2, true
	case 'n':
		return '\n', 2, true
	case 'r':
		return '\r', 2, true
	case 't':
		return '\t', 2, true
	case 'u':
		if rr = getu4(s); rr < 0 {
			return 0, 0, false
		}
		if !utf16.IsSurrogate(rr) {
			return rr, 6, true
		}
		if dec := utf16.DecodeRune(rr, getu4(s[6:])); dec != utf8.RuneError {
			return dec, 12, true
		}
		return utf8.RuneError, 6, true
	}
	return 0, 0, false
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 (never valid JSON) at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// end reports whether only whitespace follows the top-level value.
func (d *decoder) end() bool {
	d.ws()
	return d.pos == len(d.buf)
}

// jsonDoc is a document object as encoding/json reads it.
type jsonDoc struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// fallback decodes with encoding/json a line (body false: one
// document) or a /batch body that the fast path does not read, and
// returns what line and batch return. A malformed input gets
// encoding/json's syntax error. Otherwise one json.Decoder reads the
// documents one at a time, a bare string as the text and any other
// value as a jsonDoc; the ids and texts of the first limit are copied
// into scratch, and the rest only counted.
func (d *decoder) fallback(in []byte, body bool, limit int, ids, texts [][]byte) ([][]byte, [][]byte, int, error) {
	if !json.Valid(in) {
		return ids, texts, 0, json.Unmarshal(in, new(any))
	}
	d.scratch = d.scratch[:0]
	dec := json.NewDecoder(bytes.NewReader(in))
	if body {
		if first(in) != '[' { // null, or a type error
			return ids, texts, 0, typeError(dec.Decode(new([]jsonDoc)), "an array of documents")
		}
		dec.Token() // the '[' of a valid body
	}
	var doc jsonDoc
	n := 0
	for ; dec.More(); n++ {
		doc = jsonDoc{}
		var v any = &doc
		if first(in[dec.InputOffset():]) == '"' {
			v = &doc.Text
		}
		if err := dec.Decode(v); err != nil {
			return ids, texts, n, typeError(err, "a document (a string, null or an object)")
		}
		if n < limit {
			at := len(d.scratch)
			d.scratch = append(append(d.scratch, doc.ID...), doc.Text...)
			ids = append(ids, d.scratch[at:at+len(doc.ID)])
			texts = append(texts, d.scratch[at+len(doc.ID):])
		}
	}
	return ids, texts, n, nil
}

// first returns the first byte of the JSON value that starts b after
// whitespace and a separating comma.
func first(b []byte) byte {
	return bytes.TrimLeft(b, ", \t\n\r")[0]
}

// typeError words encoding/json's type error as the decoder's: the
// kind of the value and what it could not be read into, want or the
// document field. Any other error, nil included, is returned as it is.
func typeError(err error, want string) error {
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err
	}
	if te.Field != "" {
		want = `document field "` + te.Field + `" of type string`
	}
	return errors.New("json: cannot unmarshal " + te.Value + " into " + want)
}

// langTable is one serving snapshot's languages, quoted once for the
// encoder: each code as a "language" field and a counts key, and its
// name as a "name" field.
type langTable struct {
	langs []langEntry // Languages() order, the order of counts slices
	none  langEntry   // the unknown outcome's empty language
	// keys lists langs indices in sorted code order, the order
	// encoding/json writes map keys in.
	keys []int
}

type langEntry struct {
	code     string
	language []byte // "language":"en"
	name     []byte // ,"name":"English" — empty when the name is ""
	key      []byte // "en":
}

func newLangEntry(code, name string) langEntry {
	e := langEntry{code: code}
	e.language = appendString([]byte(`"language":`), code)
	if name != "" {
		e.name = appendString([]byte(`,"name":`), name)
	}
	e.key = append(appendString(nil, code), ':')
	return e
}

// newLangTable quotes the given language codes and their names.
func newLangTable(codes, names []string) *langTable {
	t := &langTable{none: newLangEntry("", ""), keys: make([]int, len(codes))}
	for i, code := range codes {
		t.langs = append(t.langs, newLangEntry(code, names[i]))
		t.keys[i] = i
	}
	sort.Slice(t.keys, func(a, b int) bool { return codes[t.keys[a]] < codes[t.keys[b]] })
	return t
}

// lookup returns the entry for a match or span language: one of the
// table's codes, or the empty entry of an unknown outcome ("").
func (t *langTable) lookup(code string) *langEntry {
	for i := range t.langs {
		if t.langs[i].code == code {
			return &t.langs[i]
		}
	}
	return &t.none
}

// appendDetection appends the Detection encoding/json would encode for
// the document with the given id, match and counts — counts in the
// table's language order, or nil for none — and spans; errMsg, when
// set, is the Detection's Error. The trailing newline is the caller's.
func (t *langTable) appendDetection(b, id []byte, m core.Match, counts []int, spans []core.Span, errMsg string) []byte {
	b = append(b, '{')
	if len(id) > 0 {
		b = append(b, `"id":`...)
		b = appendString(b, id)
		b = append(b, ',')
	}
	l := t.lookup(m.Lang)
	b = append(b, l.language...)
	b = append(b, l.name...)
	b = append(b, `,"ngrams":`...)
	b = strconv.AppendInt(b, int64(m.NGrams), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(m.Count), 10)
	b = append(b, `,"score":`...)
	b = appendFloat(b, m.Score)
	b = append(b, `,"margin":`...)
	b = appendFloat(b, m.Margin)
	if m.Unknown {
		b = append(b, `,"unknown":true`...)
	}
	if counts != nil && len(t.keys) > 0 {
		b = append(b, `,"counts":{`...)
		for i, k := range t.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, t.langs[k].key...)
			b = strconv.AppendInt(b, int64(counts[k]), 10)
		}
		b = append(b, '}')
	}
	if len(spans) > 0 {
		b = append(b, `,"spans":`...)
		b = t.appendSpans(b, spans)
	}
	if errMsg != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, errMsg)
	}
	return append(b, '}')
}

// appendSpans appends spans as the JSON array of SpanDetections.
func (t *langTable) appendSpans(b []byte, spans []core.Span) []byte {
	b = append(b, '[')
	for i, sp := range spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"start":`...)
		b = strconv.AppendInt(b, int64(sp.Start), 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, int64(sp.End), 10)
		b = append(b, ',')
		l := t.lookup(sp.Lang)
		b = append(b, l.language...)
		b = append(b, l.name...)
		b = append(b, `,"score":`...)
		b = appendFloat(b, sp.Score)
		b = append(b, `,"margin":`...)
		b = appendFloat(b, sp.Margin)
		if sp.Unknown {
			b = append(b, `,"unknown":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendSegmentation appends the Segmentation of a document of n
// bytes under the effective configuration cfg.
func (t *langTable) appendSegmentation(b []byte, n int, cfg core.SegmentConfig, spans []core.Span) []byte {
	b = append(b, `{"bytes":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(cfg.Window), 10)
	b = append(b, `,"stride":`...)
	b = strconv.AppendInt(b, int64(cfg.Stride), 10)
	b = append(b, `,"penalty":`...)
	b = strconv.AppendInt(b, int64(cfg.Penalty), 10)
	b = append(b, `,"spans":`...)
	b = t.appendSpans(b, spans)
	return append(b, '}')
}

// appendFloat formats a finite float64 as encoding/json does: like
// ES6, 'f' format unless the magnitude is below 1e-6 or at least 1e21,
// with exponents unpadded. Scores and margins are always finite.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends src as a JSON string the way encoding/json's
// HTML-escaping encoder writes it: <, > and & escaped, U+2028 and
// U+2029 escaped, and each invalid UTF-8 byte written as \ufffd.
func appendString[S []byte | string](b []byte, src S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, src[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(src)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(src[i : i+n]))
		if r == utf8.RuneError && size == 1 {
			b = append(b, src[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, src[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, src[start:]...)
	return append(b, '"')
}

// htmlSafe marks the ASCII bytes encoding/json's HTML-escaping encoder
// writes verbatim: printable ASCII and DEL, but '"', '\\', '<', '>'
// and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// buffers is one request's pooled working memory: the body or line
// buffer, the decoder with its scratch, the documents it yields, their
// counts, the response being encoded and /stream's line scanner.
type buffers struct {
	in         []byte
	out        []byte
	dec        decoder
	ids, texts [][]byte
	counts     []int
	body       streamBody
	lines      bufio.Scanner
}

var bufferPool = sync.Pool{New: func() any { return new(buffers) }}

// maxPooledBytes bounds each buffer kept for reuse, so one outsized
// request does not pin its memory in the pool.
const maxPooledBytes = 1 << 20

func getBuffers() *buffers { return bufferPool.Get().(*buffers) }

func (b *buffers) release() {
	b.body, b.lines = streamBody{}, bufio.Scanner{}
	// The document slices point into in and scratch; drop them so a
	// buffer dropped below is not pinned through them.
	clear(b.ids)
	clear(b.texts)
	b.ids, b.texts = b.ids[:0], b.texts[:0]
	b.dec.buf = nil
	if cap(b.in) > maxPooledBytes {
		b.in = nil
	}
	if cap(b.out) > maxPooledBytes {
		b.out = nil
	}
	if cap(b.dec.scratch) > maxPooledBytes {
		b.dec.scratch = nil
	}
	bufferPool.Put(b)
}

// scanLines sets b.lines to scan the /stream body src in lines of at
// most max bytes, and returns the body as the scanner reads it, whose
// out holds the answers to send w before the next read.
func (b *buffers) scanLines(src io.Reader, w http.ResponseWriter, max int) *streamBody {
	if size := min(64<<10, max); cap(b.in) < size {
		b.in = make([]byte, size)
	}
	b.body = streamBody{src: src, w: w, out: b.out[:0]}
	b.body.flusher, _ = w.(http.Flusher)
	b.lines = *bufio.NewScanner(&b.body)
	// A buffer larger than max would let longer lines through.
	b.lines.Buffer(b.in[:0:min(cap(b.in), max)], max)
	return &b.body
}

// streamBody is a /stream request body as its line scanner reads it:
// before a read from src, the one point where the handler can block,
// it writes the answers pending in out to w and flushes them, but only
// when the bytes read so far end a line. Only there can a client that
// sends whole lines be waiting for an answer; a read that ends inside
// a line leaves the rest of that line on its way, so the answers wait
// for it and go out in one write. The scanner reads no more once src
// has ended, so the last answers go out with the end of the response.
type streamBody struct {
	src     io.Reader
	w       http.ResponseWriter
	flusher http.Flusher
	out     []byte
	// atLine reports that the last byte read from src was '\n'.
	atLine bool
}

func (s *streamBody) Read(p []byte) (int, error) {
	if s.atLine && len(s.out) > 0 {
		s.w.Write(s.out)
		s.out = s.out[:0]
		if s.flusher != nil {
			s.flusher.Flush()
		}
	}
	n, err := s.src.Read(p)
	if n > 0 {
		s.atLine = p[n-1] == '\n'
	}
	return n, err
}
