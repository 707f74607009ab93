package serve

// The wire codec of the document endpoints. The decoder reads only the
// document shapes: a JSON string, null, or an object whose "id" and
// "text" keys hold a string or null. It walks an NDJSON line or a
// /batch body once and yields each document's id and text as byte
// slices of the input, or, for a string with an escape or invalid
// UTF-8, built in a scratch buffer; it never writes into the input.
// The value of any other key is found by matching brackets outside
// strings and checked by json.Valid, small values together in batches
// of up to 4 KiB, and a syntax error is reported in encoding/json's
// own words by running json.Unmarshal on the input, once the decoder
// has failed. The encoder appends Detection, SpanDetection and
// Segmentation JSON straight from core.Match and core.Span. Both are
// held to encoding/json: the decoder accepts exactly what
// json.Unmarshal accepts into the document shape and yields the same
// bytes, and the encoder writes the bytes json.Encoder.Encode writes.
// FuzzWireCodec checks both halves against encoding/json.

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

// maxDepth is encoding/json's nesting limit; sharing it keeps the two
// decoders accepting the same bodies.
const maxDepth = 10000

// errSyntax marks malformed input inside the decoder, which then
// stands at or past the first byte encoding/json rejects (at the end
// when the input stops inside a value); line and batch replace it with
// encoding/json's report of the error.
var errSyntax = errors.New("invalid JSON")

// decoder decodes documents from one NDJSON line or one /batch body.
// A document is a JSON string (its text), null (an empty document), or
// an object whose keys equal "id" or "text" under bytes.EqualFold and
// hold a string or null; the last such key wins, null leaves the field
// as it was, and every other key's value is validated and skipped.
// Yielded slices stay valid until buf or scratch is reused.
type decoder struct {
	buf     []byte
	pos     int
	depth   int // open arrays and objects
	elem    int // where the /batch document after the first starts, else 0
	scratch []byte
	// unchecked holds the skipped values json.Valid has yet to check,
	// as the elements of one JSON array: "[v1,v2,". deferred records
	// that the input put any there; eager has skip check each value at
	// once instead.
	unchecked       []byte
	deferred, eager bool
}

// checkBatch is the most bytes of skipped values checked in one
// json.Valid call; a larger value is checked on its own.
const checkBatch = 4 << 10

func (d *decoder) reset(buf []byte) {
	d.buf, d.pos, d.depth, d.elem = buf, 0, 0, 0
	d.scratch = d.scratch[:0]
	d.unchecked, d.deferred = append(d.unchecked[:0], '['), false
}

// line decodes one NDJSON document line.
func (d *decoder) line(line []byte) (id, text []byte, err error) {
	d.reset(line)
	d.ws()
	if id, text, err = d.doc(); err == nil {
		err = d.end()
	}
	if err == nil {
		err = d.check()
	}
	if err != nil && d.deferred {
		d.eager = true
		defer func() { d.eager = false }()
		return d.line(line)
	}
	if err != nil {
		return nil, nil, d.report(err)
	}
	return id, text, nil
}

// batch decodes a /batch body: a JSON array of documents, or null for
// none. It appends the ids and texts of the first limit documents to
// ids and texts and returns the number of documents in the body; the
// body is validated whole even past the limit, so a malformed body is
// reported as malformed rather than as too large.
func (d *decoder) batch(body []byte, limit int, ids, texts [][]byte) ([][]byte, [][]byte, int, error) {
	d.reset(body)
	d.ws()
	var n int
	var err error
	gotIDs, gotTexts := ids, texts
	switch d.peek() {
	case 'n':
		err = d.null()
	case '[':
		gotIDs, gotTexts, n, err = d.docs(limit, ids, texts)
	default:
		err = d.notA("an array of documents")
	}
	if err == nil {
		err = d.end()
	}
	if err == nil {
		err = d.check()
	}
	if err != nil && d.deferred {
		d.eager = true
		defer func() { d.eager = false }()
		return d.batch(body, limit, ids, texts)
	}
	return gotIDs, gotTexts, n, d.report(err)
}

// docs decodes the array of documents at d.pos, appending the ids and
// texts of the first limit to ids and texts.
func (d *decoder) docs(limit int, ids, texts [][]byte) ([][]byte, [][]byte, int, error) {
	d.pos++
	d.depth++
	d.ws()
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return ids, texts, 0, nil
	}
	for n := 0; ; {
		d.ws()
		id, text, err := d.doc()
		if err != nil {
			return ids, texts, n, err
		}
		if n < limit {
			ids, texts = append(ids, id), append(texts, text)
		}
		n++
		d.ws()
		switch d.peek() {
		case ']':
			d.pos++
			d.depth--
			return ids, texts, n, nil
		case ',':
			d.pos++
			d.elem = d.pos
		default:
			return ids, texts, n, errSyntax
		}
	}
}

// doc decodes the document value at d.pos.
func (d *decoder) doc() (id, text []byte, err error) {
	switch d.peek() {
	case '"':
		text, err = d.str()
		return nil, text, err
	case 'n':
		return nil, nil, d.null()
	case '{':
	default:
		return nil, nil, d.notA("a document (a string, null or an object)")
	}
	d.pos++
	d.depth++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil, nil, nil
	}
	for {
		if d.peek() != '"' {
			return nil, nil, errSyntax
		}
		// A key built in scratch is dropped from it once compared.
		mark := len(d.scratch)
		key, err := d.str()
		if err != nil {
			return nil, nil, err
		}
		var dst *[]byte
		name := "text"
		switch {
		case bytes.EqualFold(key, keyText):
			dst = &text
		case bytes.EqualFold(key, keyID):
			dst, name = &id, "id"
		}
		d.scratch = d.scratch[:mark]
		d.ws()
		if d.peek() != ':' {
			return nil, nil, errSyntax
		}
		d.pos++
		d.ws()
		if dst != nil {
			err = d.field(dst, name)
		} else {
			err = d.skip()
		}
		if err != nil {
			return nil, nil, err
		}
		d.ws()
		switch d.peek() {
		case '}':
			d.pos++
			d.depth--
			return id, text, nil
		case ',':
			d.pos++
			d.ws()
		default:
			return nil, nil, errSyntax
		}
	}
}

var keyText, keyID = []byte("text"), []byte("id")

// field decodes the value of a document's id or text key into dst; a
// null leaves dst as it was.
func (d *decoder) field(dst *[]byte, name string) error {
	switch d.peek() {
	case '"':
		v, err := d.str()
		*dst = v
		return err
	case 'n':
		return d.null()
	}
	return d.notA(`document field "` + name + `" of type string`)
}

// null consumes the null at d.pos.
func (d *decoder) null() error {
	if !bytes.HasPrefix(d.buf[d.pos:], litNull) {
		d.pos += len(litNull) // past the byte that differs
		return errSyntax
	}
	d.pos += len(litNull)
	return nil
}

var litNull = []byte("null")

// skip consumes one value of any type, as encoding/json validates the
// unknown fields it ignores. A value other than a string runs to the
// first comma, closing bracket or whitespace outside strings and
// outside the arrays and objects it opens, whose nesting limit it
// checks, and json.Valid checks it, with the values batched before it
// unless it is empty, large or d is eager; str reads and checks the
// strings.
func (d *decoder) skip() error {
	start, depth, mark := d.pos, d.depth, len(d.scratch)
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c == '"' {
			_, err := d.str()
			d.scratch = d.scratch[:mark]
			if err != nil || d.buf[start] == '"' {
				return err // a string value ends with its string
			}
			continue
		}
		if depth == d.depth && delimiter[c] {
			break
		}
		switch c {
		case '{', '[':
			if depth++; depth > maxDepth {
				return errSyntax
			}
		case '}', ']':
			depth--
		}
		d.pos++
	}
	v := d.buf[start:d.pos]
	if d.eager || len(v) == 0 || len(v) > checkBatch {
		if !json.Valid(v) {
			return errSyntax
		}
		return nil
	}
	d.unchecked = append(append(d.unchecked, v...), ',')
	d.deferred = true
	if len(d.unchecked) > checkBatch {
		return d.check()
	}
	return nil
}

// check validates the values skip batched, in one json.Valid call
// over them as one array. It may fail past the document that holds
// the malformed value, so line and batch then decode the input again,
// eager, to stop where encoding/json does.
func (d *decoder) check() error {
	if len(d.unchecked) == 1 {
		return nil
	}
	d.unchecked[len(d.unchecked)-1] = ']'
	ok := json.Valid(d.unchecked)
	d.unchecked = d.unchecked[:1]
	if !ok {
		return errSyntax
	}
	return nil
}

// delimiter marks the bytes that end a value: a comma, a closing
// bracket or whitespace.
var delimiter = func() (t [256]bool) {
	for _, c := range []byte(",}] \t\n\r") {
		t[c] = true
	}
	return t
}()

// str consumes the JSON string at d.pos and returns its value exactly
// as encoding/json unquotes it: escapes decoded, a UTF-16 surrogate
// escape that does not pair with the next escape and each invalid
// UTF-8 byte replaced by U+FFFD. A string with neither is a slice of
// buf; any other is built in scratch.
func (d *decoder) str() ([]byte, error) {
	buf := d.buf
	start := d.pos + 1
	r := start   // read position
	seg := start // first byte read but not yet copied to scratch
	built := -1  // the value's offset in scratch once it is built there
	for {
		r = skipVerbatim(buf, r)
		if r == len(buf) {
			d.pos = r
			return nil, errSyntax
		}
		c := buf[r]
		if c >= utf8.RuneSelf {
			if c >= 0xC2 && c < 0xE0 && r+1 < len(buf) && buf[r+1]&0xC0 == 0x80 {
				r += 2 // a well-formed two-byte rune
				continue
			}
			if rr, size := utf8.DecodeRune(buf[r:]); rr != utf8.RuneError || size > 1 {
				r += size
				continue
			}
		} else if c < ' ' {
			d.pos = r
			return nil, errSyntax
		}
		// c ends the string, starts an escape or is invalid UTF-8.
		if c == '"' {
			d.pos = r + 1
			if built < 0 {
				return buf[start:r], nil
			}
			d.scratch = append(d.scratch, buf[seg:r]...)
			return d.scratch[built:], nil
		}
		if built < 0 {
			built = len(d.scratch)
		}
		d.scratch = append(d.scratch, buf[seg:r]...)
		if c == '\\' {
			rr, n, ok := unescapeAt(buf[r:])
			if !ok {
				d.pos = r + len(`\uXXXX`) // past the byte that breaks it
				return nil, errSyntax
			}
			d.scratch = utf8.AppendRune(d.scratch, rr)
			r += n
		} else {
			d.scratch = utf8.AppendRune(d.scratch, utf8.RuneError)
			r++
		}
		seg = r
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

// end checks that only whitespace follows the top-level value.
func (d *decoder) end() error {
	d.ws()
	if d.pos < len(d.buf) {
		return errSyntax
	}
	return nil
}

// notA reports the value at d.pos, which is not want: as a syntax error
// when it is malformed, as encoding/json reports it, else by its type.
func (d *decoder) notA(want string) error {
	start := d.pos
	if err := d.skip(); err != nil {
		return err
	}
	kind := "number"
	switch d.buf[start] {
	case '"':
		kind = "string"
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case 't', 'f':
		kind = "bool"
	}
	return errors.New("json: cannot unmarshal " + kind + " into " + want)
}

// report returns err, or for errSyntax the syntax error json.Unmarshal
// reports in the input. The input before the failing document is
// valid, so json.Unmarshal reads only that document, up to where the
// decoder stopped; after "[0," when it follows another in a /batch
// array, which puts it where it stands there.
func (d *decoder) report(err error) error {
	if err != errSyntax {
		return err
	}
	in := d.buf[d.elem:min(d.pos+1, len(d.buf))]
	if d.elem > 0 {
		in = append([]byte("[0,"), in...)
	}
	if err := json.Unmarshal(in, new(json.RawMessage)); err != nil {
		return err
	}
	return errSyntax
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
