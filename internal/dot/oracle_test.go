package dot_test

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"provmark/internal/graph"
)

// The fmt-based writer and bufio.Scanner-based parser that dot's
// WriteString and ParseString replaced, kept as the oracle they are
// checked against. The oracle parser maps every escape other than \n
// to the escaped character, so it reads back only strings whose quoted
// form uses no escapes but \n, \" and \\.

func oracleWrite(w io.Writer, g *graph.Graph, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %s {\n", oracleSanitizeName(name))
	fmt.Fprintf(bw, "graph [rankdir=\"TB\"];\n")
	for _, n := range g.Nodes() {
		shape := "ellipse"
		if n.Label == "Process" || n.Label == "Activity" {
			shape = "box"
		}
		fmt.Fprintf(bw, "%q [label=%q shape=%q];\n", string(n.ID), oracleLabel(n.Label, n.Props), shape)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%q -> %q [label=%q];\n", string(e.Src), string(e.Tgt), oracleLabel(e.Label, e.Props))
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

func oracleWriteString(g *graph.Graph, name string) string {
	var b strings.Builder
	if err := oracleWrite(&b, g, name); err != nil {
		return ""
	}
	return b.String()
}

func oracleLabel(typ string, props graph.Properties) string {
	parts := []string{"type:" + typ}
	for _, k := range graph.PropKeys(props) {
		parts = append(parts, k+":"+props[k])
	}
	return strings.Join(parts, "\n")
}

func oracleSanitizeName(name string) string {
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

func oracleParseString(s string) (*graph.Graph, error) {
	g := graph.New()
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "digraph") || line == "}" ||
			strings.HasPrefix(line, "graph ") || strings.HasPrefix(line, "//"):
			continue
		}
		if err := oracleParseLine(g, line); err != nil {
			return nil, fmt.Errorf("dot: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dot: read: %w", err)
	}
	return g, nil
}

func oracleParseLine(g *graph.Graph, line string) error {
	line = strings.TrimSuffix(line, ";")
	id1, rest, err := oracleReadQuoted(line)
	if err != nil {
		return err
	}
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "->") {
		id2, attrPart, err := oracleReadQuoted(strings.TrimSpace(rest[2:]))
		if err != nil {
			return err
		}
		label, props, err := oracleParseAttrs(attrPart)
		if err != nil {
			return err
		}
		oracleEnsureNode(g, graph.ElemID(id1))
		oracleEnsureNode(g, graph.ElemID(id2))
		_, err = g.AddEdge(graph.ElemID(id1), graph.ElemID(id2), label, props)
		return err
	}
	label, props, err := oracleParseAttrs(rest)
	if err != nil {
		return err
	}
	if n := g.Node(graph.ElemID(id1)); n != nil {
		n.Label = label
		for k, v := range props {
			if err := g.SetProp(n.ID, k, v); err != nil {
				return err
			}
		}
		return nil
	}
	return g.InsertNode(graph.ElemID(id1), label, props)
}

func oracleEnsureNode(g *graph.Graph, id graph.ElemID) {
	if g.Node(id) == nil {
		_ = g.InsertNode(id, "unknown", nil)
	}
}

func oracleReadQuoted(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted identifier at %q", s)
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 < len(s) {
				if s[i+1] == 'n' {
					b.WriteByte('\n')
				} else {
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			return "", "", fmt.Errorf("dangling escape in %q", s)
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated identifier in %q", s)
}

func oracleParseAttrs(s string) (string, graph.Properties, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return "", nil, fmt.Errorf("expected attribute block, got %q", s)
	}
	s = s[1 : len(s)-1]
	var labelVal string
	for len(s) > 0 {
		s = strings.TrimSpace(s)
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			break
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimSpace(s[eq+1:])
		var val string
		if strings.HasPrefix(s, "\"") {
			v, rest, err := oracleReadQuoted(s)
			if err != nil {
				return "", nil, err
			}
			val, s = v, rest
		} else {
			sp := strings.IndexAny(s, " \t")
			if sp < 0 {
				val, s = s, ""
			} else {
				val, s = s[:sp], s[sp+1:]
			}
		}
		if key == "label" {
			labelVal = val
		}
	}
	typ := "unknown"
	props := graph.Properties{}
	for _, pair := range strings.Split(labelVal, "\n") {
		if pair == "" {
			continue
		}
		colon := strings.IndexByte(pair, ':')
		if colon < 0 {
			continue
		}
		k, v := pair[:colon], pair[colon+1:]
		if k == "type" {
			typ = v
		} else {
			props[k] = v
		}
	}
	if len(props) == 0 {
		props = nil
	}
	return typ, props, nil
}
