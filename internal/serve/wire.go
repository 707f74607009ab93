package serve

// The wire codec of the document endpoints. The decoder walks an
// NDJSON line or a /batch body once and yields each document's id and
// text as byte slices, unescaped in place; the encoder appends
// Detection, SpanDetection and Segmentation JSON straight from
// core.Match and core.Span. Both are held to encoding/json: the
// decoder accepts exactly what json.Unmarshal accepts into the
// document shape and yields the same bytes, and the encoder writes the
// bytes json.Encoder.Encode writes. FuzzWireCodec checks both halves
// against encoding/json.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
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

// errEnd is the error for input that stops inside a value.
var errEnd = errors.New("unexpected end of JSON input")

// decoder decodes documents from one NDJSON line or one /batch body.
// A document is a JSON string (its text), null (an empty document), or
// an object whose keys equal "id" or "text" under bytes.EqualFold and
// hold a string or null; the last such key wins, null leaves the field
// as it was, and every other key's value is validated and skipped.
// Strings are unescaped in place in buf: escapes only shrink, so the
// value overwrites its own quoted bytes. Only invalid UTF-8, each byte
// of which becomes the 3-byte U+FFFD, grows a string; from its first
// invalid byte such a string is written to scratch instead. Yielded
// slices stay valid until buf or scratch is reused.
type decoder struct {
	buf     []byte
	pos     int
	depth   int // open arrays and objects
	scratch []byte
	// objects has bit d set while the container open at depth d is an
	// object; skip needs it to know which closer comes next.
	objects [maxDepth/64 + 1]uint64
}

func (d *decoder) reset(buf []byte) {
	d.buf, d.pos, d.depth = buf, 0, 0
	d.scratch = d.scratch[:0]
}

// line decodes one NDJSON document line.
func (d *decoder) line(line []byte) (id, text []byte, err error) {
	d.reset(line)
	d.ws()
	if id, text, err = d.doc(); err != nil {
		return nil, nil, err
	}
	return id, text, d.end()
}

// batch decodes a /batch body: a JSON array of documents, or null for
// none. It appends the ids and texts of the first limit documents to
// ids and texts and returns the number of documents in the body; the
// body is validated whole even past the limit, so a malformed body is
// reported as malformed rather than as too large.
func (d *decoder) batch(body []byte, limit int, ids, texts [][]byte) ([][]byte, [][]byte, int, error) {
	d.reset(body)
	d.ws()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return ids, texts, 0, err
		}
		return ids, texts, 0, d.end()
	case '[':
	default:
		return ids, texts, 0, d.notA("an array of documents")
	}
	if err := d.open(false); err != nil {
		return ids, texts, 0, err
	}
	d.ws()
	n := 0
	if d.peek() == ']' {
		d.pos++
	} else {
		for {
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
			if c := d.peek(); c == ']' {
				d.pos++
				break
			} else if c != ',' {
				return ids, texts, n, d.invalid("after array element")
			}
			d.pos++
		}
	}
	d.depth--
	return ids, texts, n, d.end()
}

// doc decodes the document value at d.pos.
func (d *decoder) doc() (id, text []byte, err error) {
	switch d.peek() {
	case '"':
		text, err = d.str(true)
		return nil, text, err
	case 'n':
		return nil, nil, d.literal("null")
	case '{':
	default:
		return nil, nil, d.notA("a document (a string, null or an object)")
	}
	if err := d.open(true); err != nil {
		return nil, nil, err
	}
	d.ws()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil, nil, nil
	}
	for {
		key, err := d.key(true)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case bytes.EqualFold(key, keyText):
			err = d.field(&text, "text")
		case bytes.EqualFold(key, keyID):
			err = d.field(&id, "id")
		default:
			err = d.skip()
		}
		if err != nil {
			return nil, nil, err
		}
		d.ws()
		if c := d.peek(); c == '}' {
			d.pos++
			d.depth--
			return id, text, nil
		} else if c != ',' {
			return nil, nil, d.invalid("after object key:value pair")
		}
		d.pos++
		d.ws()
	}
}

var keyText, keyID = []byte("text"), []byte("id")

// field decodes the value of a document's id or text key into dst; a
// null leaves dst as it was.
func (d *decoder) field(dst *[]byte, name string) error {
	switch d.peek() {
	case '"':
		v, err := d.str(true)
		*dst = v
		return err
	case 'n':
		return d.literal("null")
	}
	return d.notA(`document field "` + name + `" of type string`)
}

// key consumes an object key, the colon after it and the whitespace
// around that, returning the key's value when unescape is set.
func (d *decoder) key(unescape bool) ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.invalid("looking for beginning of object key string")
	}
	key, err := d.str(unescape)
	if err != nil {
		return nil, err
	}
	d.ws()
	if d.peek() != ':' {
		return nil, d.invalid("after object key")
	}
	d.pos++
	d.ws()
	return key, nil
}

// skip validates and consumes one value of any type, as encoding/json
// validates the unknown fields it ignores, nesting limit included.
func (d *decoder) skip() error {
	base := d.depth
value:
	for {
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.open(c == '{'); err != nil {
				return err
			}
			d.ws()
			if c == '{' && d.peek() != '}' {
				if _, err := d.key(false); err != nil {
					return err
				}
				continue value
			}
			if c == '[' && d.peek() != ']' {
				continue value
			}
			d.pos++
			d.depth--
		case '"':
			if _, err := d.str(false); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close the containers it ends, until a comma
		// calls for the next value.
		for d.depth > base {
			d.ws()
			object := d.objects[d.depth/64]>>(d.depth%64)&1 == 1
			switch c := d.peek(); {
			case c == ',':
				d.pos++
				d.ws()
				if object {
					if _, err := d.key(false); err != nil {
						return err
					}
				}
				continue value
			case object && c == '}', !object && c == ']':
				d.pos++
				d.depth--
			case object:
				return d.invalid("after object key:value pair")
			default:
				return d.invalid("after array element")
			}
		}
		return nil
	}
}

// open consumes the '[' or '{' at d.pos, one level deeper.
func (d *decoder) open(object bool) error {
	if d.depth+1 > maxDepth {
		return d.invalid("exceeded max depth")
	}
	d.depth++
	d.pos++
	word, bit := &d.objects[d.depth/64], uint64(1)<<(d.depth%64)
	if object {
		*word |= bit
	} else {
		*word &^= bit
	}
	return nil
}

// str consumes the JSON string at d.pos. With unescape set it returns
// the string's value exactly as encoding/json unquotes it: escapes
// decoded, a UTF-16 surrogate escape that does not pair with the next
// escape and each invalid UTF-8 byte replaced by U+FFFD.
func (d *decoder) str(unescape bool) ([]byte, error) {
	buf := d.buf
	start := d.pos + 1
	r, w := start, start // read position; in-place write position
	seg := start         // first byte read but not yet written to the value
	moved := -1          // the value's offset in scratch once it moved there
	for {
		r = skipVerbatim(buf, r)
		if r == len(buf) {
			d.pos = r
			return nil, errEnd
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
			return nil, d.invalid("in string literal")
		}
		// c ends the string, starts an escape or is invalid UTF-8; the
		// verbatim bytes before it go to the value first.
		if unescape {
			if moved >= 0 {
				d.scratch = append(d.scratch, buf[seg:r]...)
			} else {
				if w != seg {
					copy(buf[w:], buf[seg:r])
				}
				w += r - seg
			}
		}
		switch c {
		case '"':
			d.pos = r + 1
			if !unescape {
				return nil, nil
			}
			if moved >= 0 {
				return d.scratch[moved:], nil
			}
			return buf[start:w], nil
		case '\\':
			rr, n, bad := unescapeAt(buf[r:])
			if bad != "" {
				d.pos = r + n
				return nil, d.invalid(bad)
			}
			if unescape {
				if moved >= 0 {
					d.scratch = utf8.AppendRune(d.scratch, rr)
				} else {
					// The rune's encoding is never longer than its escape.
					w += utf8.EncodeRune(buf[w:], rr)
				}
			}
			r += n
		default:
			// Invalid UTF-8, whose U+FFFD is longer: the value moves to
			// scratch.
			if unescape {
				if moved < 0 {
					moved = len(d.scratch)
					d.scratch = append(d.scratch, buf[start:w]...)
				}
				d.scratch = utf8.AppendRune(d.scratch, utf8.RuneError)
			}
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
// the next escape to be decoded on its own. A malformed escape returns
// the syntax error's context, with n the offset of the offending byte.
func unescapeAt(s []byte) (rr rune, n int, bad string) {
	if len(s) < 2 {
		return 0, len(s), "in string escape code"
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2, ""
	case 'b':
		return '\b', 2, ""
	case 'f':
		return '\f', 2, ""
	case 'n':
		return '\n', 2, ""
	case 'r':
		return '\r', 2, ""
	case 't':
		return '\t', 2, ""
	case 'u':
		for i := 2; i < 6; i++ {
			if i == len(s) || hexVal(s[i]) < 0 {
				return 0, i, "in \\u hexadecimal character escape"
			}
			rr = rr<<4 | hexVal(s[i])
		}
		if !utf16.IsSurrogate(rr) {
			return rr, 6, ""
		}
		if dec := utf16.DecodeRune(rr, getu4(s[6:])); dec != utf8.RuneError {
			return dec, 12, ""
		}
		return utf8.RuneError, 6, ""
	}
	return 0, 1, "in string escape code"
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1;
// unescapeAt looks with it for the second half of a surrogate pair.
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

// literal consumes the literal lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.invalid("in literal " + lit + " (expecting " + quoteChar(lit[i]) + ")")
		}
		d.pos++
	}
	return nil
}

// number consumes a JSON number.
func (d *decoder) number() error {
	context := "looking for beginning of value"
	if d.peek() == '-' {
		d.pos++
		context = "in numeric literal"
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.invalid(context)
	}
	if d.peek() == '.' {
		d.pos++
		if !isDigit(d.peek()) {
			return d.invalid("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return d.invalid("in exponent of numeric literal")
		}
		d.digits()
	}
	return nil
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.pos++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

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
		return d.invalid("after top-level value")
	}
	return nil
}

// invalid reports the byte at d.pos as unexpected in context, worded
// as encoding/json words its syntax errors.
func (d *decoder) invalid(context string) error {
	if d.pos >= len(d.buf) {
		return errEnd
	}
	return errors.New("invalid character " + quoteChar(d.buf[d.pos]) + " " + context)
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

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
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
// buffer the decoder unescapes in place, the decoder with its scratch,
// the documents it yields, their counts and the response being
// encoded.
type buffers struct {
	in         []byte
	out        []byte
	dec        decoder
	ids, texts [][]byte
	counts     []int
	lines      lineReader
}

var bufferPool = sync.Pool{New: func() any { return new(buffers) }}

// maxPooledBytes bounds each buffer kept for reuse, so one outsized
// request does not pin its memory in the pool.
const maxPooledBytes = 1 << 20

func getBuffers() *buffers { return bufferPool.Get().(*buffers) }

func (b *buffers) release() {
	if cap(b.lines.buf) > cap(b.in) {
		b.in = b.lines.buf
	}
	b.lines = lineReader{}
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

// lineReader returns the pooled reader of src's lines, at most max
// bytes each.
func (b *buffers) lineReader(src io.Reader, max int) *lineReader {
	size := min(64<<10, max)
	if cap(b.in) < size {
		b.in = make([]byte, size)
	}
	b.lines = lineReader{src: src, buf: b.in[:min(cap(b.in), max)], max: max}
	return &b.lines
}

// lineReader splits a /stream body into lines exactly as bufio.Scanner
// with ScanLines splits it under a buffer of max bytes: a line ends at
// '\n', loses one trailing '\r', and the unterminated rest of the body
// is the last line; a line that fills the whole max-byte buffer
// without ending is too long. Unlike Scanner it leaves the reads to
// its caller, which gets to act (flush its answers) before each one.
type lineReader struct {
	src  io.Reader
	buf  []byte // buf[r:w] is input read but not yet returned
	r, w int
	max  int
	err  error // the read error that ended the body, io.EOF included
}

// next returns the next line from the input read so far; ok is false
// when a read is needed first.
func (l *lineReader) next() (line []byte, ok bool) {
	if i := bytes.IndexByte(l.buf[l.r:l.w], '\n'); i >= 0 {
		line = l.buf[l.r : l.r+i]
		l.r += i + 1
	} else if l.err != nil && l.r < l.w {
		line = l.buf[l.r:l.w]
		l.r = l.w
	} else {
		return nil, false
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true
}

// maxEmptyReads is how many reads in a row may return nothing before
// fill gives up, as bufio.Scanner does.
const maxEmptyReads = 100

// fill reads more of the body. It returns the error that ends the
// lines: io.EOF at the end of the body, bufio.ErrTooLong once a line
// fills the whole buffer, or the read error.
func (l *lineReader) fill() error {
	if l.err != nil {
		return l.err
	}
	if l.r > 0 && (l.w == len(l.buf) || l.r > len(l.buf)/2) {
		l.w = copy(l.buf, l.buf[l.r:l.w])
		l.r = 0
	}
	if l.w == len(l.buf) {
		if len(l.buf) >= l.max {
			return bufio.ErrTooLong
		}
		grown := make([]byte, min(2*len(l.buf), l.max))
		l.w = copy(grown, l.buf[l.r:l.w])
		l.buf, l.r = grown, 0
	}
	for range maxEmptyReads {
		n, err := l.src.Read(l.buf[l.w:])
		l.w += n
		if err != nil {
			l.err = err
			return nil
		}
		if n > 0 {
			return nil
		}
	}
	return io.ErrNoProgress
}
