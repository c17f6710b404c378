// Package dot reads and writes the Graphviz DOT dialect that the SPADE
// simulator emits (SPADE's Graphviz storage is one of its standard
// output backends). The subset covers digraphs whose node and edge
// attributes carry provenance properties in the label attribute as
// newline-separated key:value pairs, with the element's type under the
// reserved key "type".
package dot

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"provmark/internal/graph"
)

// WriteString renders a property graph as a DOT digraph. The graph
// label of each element is emitted as a leading "type:<label>" pair;
// property keys follow in sorted order. Identifiers and labels are
// quoted as strconv.Quote quotes them. A label or property value that
// contains a newline, a property key that contains a colon or a
// newline, and a property named "type" do not read back unchanged,
// because the label separates its pairs with newlines and each key
// from its value with the first colon.
func WriteString(g *graph.Graph, name string) string {
	w := writer{out: make([]byte, 0, 128*(g.Size()+1))} // SPADE's lines run about 105 bytes
	w.out = append(w.out, "digraph "...)
	w.out = append(w.out, sanitizeName(name)...)
	w.out = append(w.out, " {\ngraph [rankdir=\"TB\"];\n"...)
	for _, n := range g.Nodes() {
		shape := `"ellipse"`
		if n.Label == "Process" || n.Label == "Activity" {
			shape = `"box"`
		}
		w.out = strconv.AppendQuote(w.out, string(n.ID))
		w.out = append(w.out, " [label="...)
		w.label(n.Label, n.Props)
		w.out = append(w.out, " shape="...)
		w.out = append(w.out, shape...)
		w.out = append(w.out, "];\n"...)
	}
	for _, e := range g.Edges() {
		w.out = strconv.AppendQuote(w.out, string(e.Src))
		w.out = append(w.out, " -> "...)
		w.out = strconv.AppendQuote(w.out, string(e.Tgt))
		w.out = append(w.out, " [label="...)
		w.label(e.Label, e.Props)
		w.out = append(w.out, "];\n"...)
	}
	w.out = append(w.out, "}\n"...)
	return string(w.out)
}

type writer struct {
	out  []byte
	text []byte // the label being built
	keys []string
}

// label appends the quoted label attribute: "type:<typ>" and then one
// "key:value" pair per property in key order, joined by newlines.
func (w *writer) label(typ string, props graph.Properties) {
	w.text = append(append(w.text[:0], "type:"...), typ...)
	w.keys = w.keys[:0]
	for k := range props {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	for _, k := range w.keys {
		w.text = append(append(append(append(w.text, '\n'), k...), ':'), props[k]...)
	}
	w.out = appendQuoteBytes(w.out, w.text)
}

// appendQuoteBytes appends b quoted exactly as strconv.AppendQuote
// quotes string(b), without converting b to a string.
func appendQuoteBytes(out, b []byte) []byte {
	out = append(out, '"')
	for len(b) > 0 {
		if c := b[0]; c >= ' ' && c < 0x7f && c != '"' && c != '\\' {
			out = append(out, c)
			b = b[1:]
			continue
		}
		_, size := utf8.DecodeRune(b)
		// Anything else goes through strconv one rune at a time, and
		// the quotes it adds around the rune are dropped.
		n := len(out)
		out = strconv.AppendQuote(out, string(b[:size]))
		out = append(out[:n], out[n+1:len(out)-1]...)
		b = b[size:]
	}
	return append(out, '"')
}

func sanitizeName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "g"
	}
	return string(out)
}

// ParseString reads a DOT digraph written by WriteString (or by a
// compatible tool) back into a property graph. Each quoted token is
// decoded as strconv.Unquote decodes it.
func ParseString(s string) (*graph.Graph, error) {
	p := parser{g: graph.New(), props: graph.Properties{}}
	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "digraph") || line == "}" ||
			strings.HasPrefix(line, "graph ") || strings.HasPrefix(line, "//"):
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("dot: line %d: %w", lineNo, err)
		}
	}
	return p.g, nil
}

// parser holds one parse's graph, the scratch buffers its lines are
// decoded into, and the table that copies each distinct string out of
// them once.
type parser struct {
	g     *graph.Graph
	strs  internTable
	buf   []byte // the last quoted token outside the label attribute
	text  []byte // the decoded label attribute
	props graph.Properties
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

func (p *parser) line(line string) error {
	line = strings.TrimSuffix(line, ";")
	var err error
	p.buf, line, err = unquote(p.buf[:0], line)
	if err != nil {
		return err
	}
	id1 := graph.ElemID(p.strs.intern(p.buf))
	line = strings.TrimSpace(line)
	if rest, ok := strings.CutPrefix(line, "->"); ok {
		p.buf, rest, err = unquote(p.buf[:0], rest)
		if err != nil {
			return err
		}
		id2 := graph.ElemID(p.strs.intern(p.buf))
		label, err := p.attrs(rest)
		if err != nil {
			return err
		}
		p.ensureNode(id1)
		p.ensureNode(id2)
		_, err = p.g.AddEdge(id1, id2, label, orNil(p.props))
		return err
	}
	label, err := p.attrs(line)
	if err != nil {
		return err
	}
	if n := p.g.Node(id1); n != nil {
		// Node was auto-created by an earlier edge line: fill it in.
		n.Label = label
		for k, v := range p.props {
			if err := p.g.SetProp(n.ID, k, v); err != nil {
				return err
			}
		}
		return nil
	}
	return p.g.InsertNode(id1, label, orNil(p.props))
}

func (p *parser) ensureNode(id graph.ElemID) {
	if p.g.Node(id) == nil {
		// An id already taken by an edge fails here and again, with
		// its error reported, when the edge itself is added.
		_ = p.g.InsertNode(id, "unknown", nil)
	}
}

func orNil(props graph.Properties) graph.Properties {
	if len(props) == 0 {
		return nil
	}
	return props
}

// unquote decodes the quoted token at the start of s (after spaces),
// appending its value to buf exactly as strconv.Unquote would decode
// it, and returns the remainder of s.
func unquote(buf []byte, s string) ([]byte, string, error) {
	s = strings.TrimSpace(s)
	if len(s) == 0 || s[0] != '"' {
		return buf, "", fmt.Errorf("expected quoted identifier at %q", s)
	}
	in := s[1:]
	for len(in) > 0 && in[0] != '"' {
		if c := in[0]; c != '\\' && c != '\n' && c < utf8.RuneSelf {
			buf = append(buf, c)
			in = in[1:]
			continue
		}
		r, multibyte, tail, err := strconv.UnquoteChar(in, '"')
		if err != nil || in[0] == '\n' {
			return buf, "", fmt.Errorf("invalid quoted string %q", s)
		}
		if r < utf8.RuneSelf || !multibyte {
			buf = append(buf, byte(r))
		} else {
			buf = utf8.AppendRune(buf, r)
		}
		in = tail
	}
	if len(in) == 0 {
		return buf, "", fmt.Errorf("unterminated identifier in %q", s)
	}
	return buf, in[1:], nil
}

// attrs reads the [key=value ...] attribute block, splitting the label
// attribute into the returned type and p.props.
func (p *parser) attrs(s string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return "", fmt.Errorf("expected attribute block, got %q", s)
	}
	s = s[1 : len(s)-1]
	p.text = p.text[:0]
	for len(s) > 0 {
		s = strings.TrimSpace(s)
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			break
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimSpace(s[eq+1:])
		dst := &p.buf
		if key == "label" {
			dst = &p.text
		}
		if strings.HasPrefix(s, "\"") {
			var err error
			if *dst, s, err = unquote((*dst)[:0], s); err != nil {
				return "", err
			}
		} else {
			sp := strings.IndexAny(s, " \t")
			if sp < 0 {
				sp = len(s)
			}
			*dst = append((*dst)[:0], s[:sp]...)
			s = s[min(sp+1, len(s)):]
		}
	}
	typ := "unknown"
	clear(p.props)
	for text, more := p.text, true; more; {
		var pair []byte
		pair, text, more = bytes.Cut(text, []byte{'\n'})
		k, v, ok := bytes.Cut(pair, []byte{':'})
		if !ok {
			continue
		}
		if string(k) == "type" {
			typ = p.strs.intern(v)
		} else {
			p.props[p.strs.intern(k)] = p.strs.intern(v)
		}
	}
	return typ, nil
}
