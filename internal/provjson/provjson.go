// Package provjson reads and writes the W3C PROV-JSON subset CamFlow
// emits: the three PROV node kinds (entity, activity, agent) and the
// relation kinds CamFlow uses, each with property dictionaries. The
// mapping to the property-graph model is:
//
//   - node label  = PROV kind ("entity", "activity", "agent");
//   - edge label  = relation name ("used", "wasGeneratedBy", ...);
//   - edge endpoints use the relation's standard role keys
//     (e.g. used: prov:activity -> prov:entity).
//
// The codec is direct: Marshal appends the document in one pass and
// Unmarshal scans it in one pass, with no encoding/json in between.
// Both keep the exact behaviour of encoding/json over the document
// type map[string]map[string]map[string]string: Marshal emits the bytes
// json.MarshalIndent(doc, "", "  ") would, and Unmarshal accepts
// exactly the inputs json.Unmarshal would and reads them the same way.
package provjson

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"provmark/internal/graph"
)

// relationRoles maps a PROV relation name to its (source, target) role
// keys. Unknown relations fall back to prov:from / prov:to.
var relationRoles = map[string][2]string{
	"used":              {"prov:activity", "prov:entity"},
	"wasGeneratedBy":    {"prov:entity", "prov:activity"},
	"wasInformedBy":     {"prov:informed", "prov:informant"},
	"wasAssociatedWith": {"prov:activity", "prov:agent"},
	"wasDerivedFrom":    {"prov:generatedEntity", "prov:usedEntity"},
	"wasAttributedTo":   {"prov:entity", "prov:agent"},
}

var nodeKinds = []string{"entity", "activity", "agent"}

func rolesOf(relation string) [2]string {
	if roles, ok := relationRoles[relation]; ok {
		return roles
	}
	return [2]string{"prov:from", "prov:to"}
}

// kv is one key/value pair of a document entry.
type kv struct{ key, val string }

// entry is one element of the document: its section, the section's
// insertion rank (the node kinds' index, then the relations; 0 when
// writing), its id, and the range of its key/value pairs in a kv slice.
type entry struct {
	section, id  string
	rank, lo, hi int
}

// sortEntries orders entries by rank, section and id. It is stable, so
// of the entries that share a section and an id the last one, the one
// a map store would keep, is the last of its run (see shadowed).
func sortEntries(entries []entry) {
	slices.SortStableFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), strings.Compare(a.section, b.section), strings.Compare(a.id, b.id))
	})
}

// shadowed reports whether a later sorted entry has entries[i]'s
// section and id.
func shadowed(entries []entry, i int) bool {
	return i+1 < len(entries) && entries[i+1].section == entries[i].section && entries[i+1].id == entries[i].id
}

// Marshal renders a property graph whose node labels are PROV kinds and
// whose edge labels are PROV relation names into PROV-JSON bytes:
// sections, ids and keys in bytewise order, indented by two spaces. An
// edge property named like one of the relation's role keys replaces
// the endpoint under that key.
func Marshal(g *graph.Graph) ([]byte, error) {
	nodes, edges := g.Nodes(), g.Edges()
	size := 2 * len(edges)
	for _, n := range nodes {
		size += len(n.Props)
	}
	for _, e := range edges {
		size += len(e.Props)
	}
	entries := make([]entry, 0, len(nodes)+len(edges))
	pairs := make([]kv, 0, size)
	for _, n := range nodes {
		if !isNodeKind(n.Label) {
			return nil, fmt.Errorf("provjson: node %s has non-PROV label %q", n.ID, n.Label)
		}
		lo := len(pairs)
		for k, v := range n.Props {
			pairs = append(pairs, kv{k, v})
		}
		entries = append(entries, entry{section: n.Label, id: string(n.ID), lo: lo, hi: len(pairs)})
	}
	for _, e := range edges {
		lo := len(pairs)
		roles := rolesOf(e.Label)
		for i, end := range [2]graph.ElemID{e.Src, e.Tgt} {
			if _, ok := e.Props[roles[i]]; !ok {
				pairs = append(pairs, kv{roles[i], string(end)})
			}
		}
		for k, v := range e.Props {
			pairs = append(pairs, kv{k, v})
		}
		entries = append(entries, entry{section: e.Label, id: string(e.ID), lo: lo, hi: len(pairs)})
	}
	if len(entries) == 0 {
		return []byte("{}"), nil
	}
	sortEntries(entries)
	out := make([]byte, 0, 160*len(entries)) // CamFlow's run about 140 bytes
	out = append(out, '{')
	last := -1 // the entry written last
	for i, e := range entries {
		if shadowed(entries, i) {
			continue
		}
		if last < 0 || entries[last].section != e.section {
			if last >= 0 {
				out = append(out, "\n  },"...)
			}
			out = append(out, "\n  "...)
			out = appendString(out, e.section)
			out = append(out, ": {"...)
		} else {
			out = append(out, ',')
		}
		last = i
		out = append(out, "\n    "...)
		out = appendString(out, e.id)
		out = append(out, ": {"...)
		entryPairs := pairs[e.lo:e.hi]
		slices.SortFunc(entryPairs, func(a, b kv) int { return strings.Compare(a.key, b.key) })
		for j, p := range entryPairs {
			if j > 0 {
				out = append(out, ',')
			}
			out = append(out, "\n      "...)
			out = appendString(out, p.key)
			out = append(out, ": "...)
			out = appendString(out, p.val)
		}
		if len(entryPairs) > 0 {
			out = append(out, "\n    "...)
		}
		out = append(out, '}')
	}
	return append(out, "\n  }\n}"...), nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json quotes a string with HTML
// escaping on: the short escapes for \b \f \n \r \t, \u00XX for the
// other control bytes and for < > &, \ufffd for each byte of invalid
// UTF-8, and \u2028 and \u2029 for the two line separators.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Unmarshal parses PROV-JSON bytes back into a property graph: the
// entity, activity and agent sections in that order, then the relation
// sections by name, each section's elements in id order. A "prefix"
// section is skipped. As with encoding/json, null stands for an empty
// section, entry or string, a repeated key keeps its last value (a
// repeated section replaces the earlier one), and invalid UTF-8 and
// lone surrogates read as U+FFFD.
func Unmarshal(data []byte) (*graph.Graph, error) {
	// An indented document spends about 32 bytes on each property and
	// 140 on each entry; the guess saves regrowing the arrays.
	d := decoder{
		data:    data,
		entries: make([]entry, 0, len(data)/128),
		pairs:   make([]kv, 0, len(data)/32),
	}
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("provjson: %w", err)
	}
	sortEntries(d.entries)
	g := graph.New()
	props := graph.Properties{} // filled per entry; Insert* copy it
	for i, e := range d.entries {
		if shadowed(d.entries, i) {
			continue
		}
		clear(props)
		for _, p := range d.pairs[e.lo:e.hi] {
			props[p.key] = p.val
		}
		var err error
		if e.rank < len(nodeKinds) {
			err = g.InsertNode(graph.ElemID(e.id), e.section, orNil(props))
		} else {
			roles := rolesOf(e.section)
			src, okS := props[roles[0]]
			tgt, okT := props[roles[1]]
			if !okS || !okT {
				return nil, fmt.Errorf("provjson: relation %s/%s lacks %s or %s", e.section, e.id, roles[0], roles[1])
			}
			delete(props, roles[0])
			delete(props, roles[1])
			err = g.InsertEdge(graph.ElemID(e.id), graph.ElemID(src), graph.ElemID(tgt), e.section, orNil(props))
		}
		if err != nil {
			return nil, fmt.Errorf("provjson: %w", err)
		}
	}
	return g, nil
}

func orNil(p graph.Properties) graph.Properties {
	if len(p) == 0 {
		return nil
	}
	return p
}

func isNodeKind(s string) bool { return slices.Contains(nodeKinds, s) }

// decoder is the one-pass PROV-JSON reader. It copies the strings it
// keeps out of data, through strs, so a graph never holds on to the
// input buffer.
type decoder struct {
	data    []byte
	pos     int
	buf     []byte // unescaping scratch
	strs    internTable
	entries []entry
	pairs   []kv
}

func (d *decoder) fail(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of input, want %s", want)
	}
	return fmt.Errorf("unexpected %q at offset %d, want %s", d.data[d.pos], d.pos, want)
}

// document reads the whole input: null or an object of sections,
// surrounded by nothing but whitespace.
func (d *decoder) document() error {
	err := d.object(func(section string) error {
		d.entries = slices.DeleteFunc(d.entries, func(e entry) bool { return e.section == section })
		rank := slices.Index(nodeKinds, section)
		if rank < 0 {
			rank = len(nodeKinds)
		}
		return d.object(func(id string) error {
			lo := len(d.pairs)
			err := d.object(func(key string) error {
				val, err := d.value()
				d.pairs = append(d.pairs, kv{key, val})
				return err
			})
			if section != "prefix" {
				d.entries = append(d.entries, entry{section, id, rank, lo, len(d.pairs)})
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	d.space()
	if d.pos != len(d.data) {
		return d.fail("end of input")
	}
	return nil
}

// object reads null or a JSON object, calling member after each key
// and its colon to read the value.
func (d *decoder) object(member func(key string) error) error {
	d.space()
	if d.literal("null") {
		return nil
	}
	if !d.next('{') {
		return d.fail("'{' or null")
	}
	if d.space(); d.next('}') {
		return nil
	}
	for {
		d.space()
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.space(); !d.next(':') {
			return d.fail("':'")
		}
		if err := member(key); err != nil {
			return err
		}
		if d.space(); d.next('}') {
			return nil
		}
		if !d.next(',') {
			return d.fail("',' or '}'")
		}
	}
}

// value reads a property value: a string, or null for "".
func (d *decoder) value() (string, error) {
	d.space()
	if d.literal("null") {
		return "", nil
	}
	return d.str()
}

func (d *decoder) next(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *decoder) literal(lit string) bool {
	if string(d.data[d.pos:min(d.pos+len(lit), len(d.data))]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *decoder) space() {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.pos++
	}
}

// str reads a JSON string and returns its interned value.
func (d *decoder) str() (string, error) {
	if !d.next('"') {
		return "", d.fail("string")
	}
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		d.pos++
	}
	if d.next('"') {
		return d.strs.intern(d.data[start : d.pos-1]), nil
	}
	d.buf = append(d.buf[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.strs.intern(d.buf), nil
		case c < 0x20:
			return "", d.fail("string character")
		case c == '\\':
			if err := d.escape(); err != nil {
				return "", err
			}
		default:
			// Invalid UTF-8 decodes to U+FFFD one byte at a time.
			r, size := utf8.DecodeRune(d.data[d.pos:])
			d.buf = utf8.AppendRune(d.buf, r)
			d.pos += size
		}
	}
	return "", d.fail("closing '\"'")
}

// escape decodes the escape sequence at d.pos into d.buf. A \u escape
// of half a surrogate pair joins the next \u escape when that completes
// the pair, and reads as U+FFFD otherwise.
func (d *decoder) escape() error {
	d.pos++
	if d.pos >= len(d.data) {
		return d.fail("escape")
	}
	c := d.data[d.pos]
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		d.buf = append(d.buf, "\"\\/\b\f\n\r\t"[i])
		d.pos++
		return nil
	}
	r := d.hex4(d.pos - 1)
	if r < 0 {
		return d.fail("escape character or \\u and four hex digits")
	}
	d.pos += 5
	if utf16.IsSurrogate(r) {
		r = utf16.DecodeRune(r, d.hex4(d.pos))
		if r != utf8.RuneError {
			d.pos += 6
		}
	}
	d.buf = utf8.AppendRune(d.buf, r)
	return nil
}

// hex4 reads a \uXXXX escape at data[i:] and returns its code unit, or
// -1 if there is none.
func (d *decoder) hex4(i int) rune {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(string(d.data[i+2:i+6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// internTable is a direct-mapped cache of strings by content: a string
// seen again while its slot still holds it is not copied again.
type internTable [512]string

func (t *internTable) intern(b []byte) string {
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &t[h%uint32(len(t))]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}
