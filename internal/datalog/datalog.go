// Package datalog implements the common Datalog property-graph format of
// Listing 1 in the paper:
//
//	Node     n<gid>(<nodeID>,<label>)
//	Edge     e<gid>(<edgeID>,<srcID>,<tgtID>,<label>)
//	Property p<gid>(<nodeID/edgeID>,<key>,<value>)
//
// Every tool-specific output format is translated into this form by the
// transformation stage; all later stages (generalization, comparison,
// regression storage) operate on it exclusively.
package datalog

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"provmark/internal/graph"
)

// Print renders a graph as Datalog facts under the given graph id.
// Output order is deterministic: nodes, then edges, then properties, each
// in insertion order with property keys sorted.
func Print(g *graph.Graph, gid string) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "n%s(%s,%s).\n", gid, n.ID, quote(n.Label))
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "e%s(%s,%s,%s,%s).\n", gid, e.ID, e.Src, e.Tgt, quote(e.Label))
	}
	for _, n := range g.Nodes() {
		for _, k := range graph.PropKeys(n.Props) {
			fmt.Fprintf(&b, "p%s(%s,%s,%s).\n", gid, n.ID, quote(k), quote(n.Props[k]))
		}
	}
	for _, e := range g.Edges() {
		for _, k := range graph.PropKeys(e.Props) {
			fmt.Fprintf(&b, "p%s(%s,%s,%s).\n", gid, e.ID, quote(k), quote(e.Props[k]))
		}
	}
	return b.String()
}

// quote renders a Datalog string constant with escaping for embedded
// quotes and backslashes.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// SyntaxError reports a malformed Datalog fact with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("datalog: line %d: %s", e.Line, e.Msg)
}

// Parse reads Datalog facts and rebuilds the property graph they encode.
// All facts must share a single graph id; Parse returns that id alongside
// the graph. Facts may arrive in any order: properties and edges may
// precede the nodes they reference, so parsing is two-pass.
func Parse(r io.Reader) (*graph.Graph, string, error) {
	type edgeFact struct{ id, src, tgt, label string }
	type propFact struct{ id, key, value string }
	var (
		gid       string
		nodeFacts []struct{ id, label string }
		edgeFacts []edgeFact
		propFacts []propFact
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		kind, factGid, args, err := parseFact(line)
		if err != nil {
			return nil, "", &SyntaxError{Line: lineNo, Msg: err.Error()}
		}
		if gid == "" {
			gid = factGid
		} else if factGid != gid {
			return nil, "", &SyntaxError{Line: lineNo, Msg: fmt.Sprintf("mixed graph ids %q and %q", gid, factGid)}
		}
		switch kind {
		case 'n':
			if len(args) != 2 {
				return nil, "", &SyntaxError{Line: lineNo, Msg: "node fact needs 2 arguments"}
			}
			nodeFacts = append(nodeFacts, struct{ id, label string }{args[0], args[1]})
		case 'e':
			if len(args) != 4 {
				return nil, "", &SyntaxError{Line: lineNo, Msg: "edge fact needs 4 arguments"}
			}
			edgeFacts = append(edgeFacts, edgeFact{args[0], args[1], args[2], args[3]})
		case 'p':
			if len(args) != 3 {
				return nil, "", &SyntaxError{Line: lineNo, Msg: "property fact needs 3 arguments"}
			}
			propFacts = append(propFacts, propFact{args[0], args[1], args[2]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", fmt.Errorf("datalog: read: %w", err)
	}

	g := graph.New()
	for _, n := range nodeFacts {
		if err := g.InsertNode(graph.ElemID(n.id), n.label, nil); err != nil {
			return nil, "", fmt.Errorf("datalog: %w", err)
		}
	}
	for _, e := range edgeFacts {
		if err := g.InsertEdge(graph.ElemID(e.id), graph.ElemID(e.src), graph.ElemID(e.tgt), e.label, nil); err != nil {
			return nil, "", fmt.Errorf("datalog: %w", err)
		}
	}
	for _, p := range propFacts {
		if err := g.SetProp(graph.ElemID(p.id), p.key, p.value); err != nil {
			return nil, "", fmt.Errorf("datalog: property for unknown element %q", p.id)
		}
	}
	return g, gid, nil
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*graph.Graph, string, error) {
	return Parse(strings.NewReader(s))
}

// parseFact splits one fact "k<gid>(a1,...,an)." into its kind rune,
// graph id, and argument list. String arguments are unquoted.
func parseFact(line string) (byte, string, []string, error) {
	if !strings.HasSuffix(line, ".") {
		return 0, "", nil, fmt.Errorf("fact %q does not end with '.'", line)
	}
	line = line[:len(line)-1]
	open := strings.IndexByte(line, '(')
	if open < 2 {
		return 0, "", nil, fmt.Errorf("fact %q has no predicate arguments", line)
	}
	head := line[:open]
	kind := head[0]
	if kind != 'n' && kind != 'e' && kind != 'p' {
		return 0, "", nil, fmt.Errorf("unknown predicate %q", head)
	}
	gid := head[1:]
	if gid == "" {
		return 0, "", nil, fmt.Errorf("predicate %q lacks a graph id", head)
	}
	if !strings.HasSuffix(line, ")") {
		return 0, "", nil, fmt.Errorf("fact %q is not closed", line)
	}
	args, err := splitArgs(line[open+1 : len(line)-1])
	if err != nil {
		return 0, "", nil, err
	}
	return kind, gid, args, nil
}

// splitArgs splits a comma-separated argument list, honouring quoted
// strings with backslash escapes.
func splitArgs(s string) ([]string, error) {
	var args []string
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("trailing comma in %q", s)
		}
		if s[i] == '"' {
			val, rest, err := scanQuoted(s[i:])
			if err != nil {
				return nil, err
			}
			args = append(args, val)
			i = len(s) - len(rest)
		} else {
			j := i
			for j < len(s) && s[j] != ',' {
				j++
			}
			args = append(args, strings.TrimSpace(s[i:j]))
			i = j
		}
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' at %q", s[i:])
			}
			i++
		}
	}
	return args, nil
}

// scanQuoted consumes a leading quoted string and returns its unescaped
// value and the remainder of the input.
func scanQuoted(s string) (string, string, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted string at %q", s)
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape in %q", s)
			}
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i+1])
			}
			i += 2
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated string in %q", s)
}

// Normalize renumbers a graph's node and edge identifiers to the
// canonical n1..nk / e1..em sequence in a deterministic order derived
// from WL colours, labels and sorted properties. Two Equal-after-
// Normalize graphs are isomorphic with identical properties; the
// regression store normalizes before diffing so that volatile identifier
// allocation between tool versions does not trigger false regressions.
func Normalize(g *graph.Graph) *graph.Graph {
	colors := g.Colors()
	type nodeKey struct {
		color uint64
		rest  string // label|props
		n     *graph.Node
	}
	nodes := make([]nodeKey, g.NumNodes())
	for i, n := range g.Nodes() {
		nodes[i] = nodeKey{colors[i], n.Label + "|" + propSig(n.Props), n}
	}
	slices.SortStableFunc(nodes, func(a, b nodeKey) int {
		return cmp.Or(cmp.Compare(a.color, b.color), strings.Compare(a.rest, b.rest))
	})
	rename := make(map[graph.ElemID]graph.ElemID, len(nodes))
	out := graph.New()
	for i, k := range nodes {
		id := graph.ElemID("n" + strconv.Itoa(i+1))
		rename[k.n.ID] = id
		if err := out.InsertNode(id, k.n.Label, k.n.Props); err != nil {
			panic("datalog: normalize node: " + err.Error()) // fresh ids cannot collide
		}
	}
	type edgeKey struct {
		key string // src|label|tgt|props over the new node ids
		e   *graph.Edge
	}
	edges := make([]edgeKey, g.NumEdges())
	for i, e := range g.Edges() {
		edges[i] = edgeKey{string(rename[e.Src]) + "|" + e.Label + "|" + string(rename[e.Tgt]) + "|" + propSig(e.Props), e}
	}
	slices.SortStableFunc(edges, func(a, b edgeKey) int { return strings.Compare(a.key, b.key) })
	for i, k := range edges {
		id := graph.ElemID("e" + strconv.Itoa(i+1))
		if err := out.InsertEdge(id, rename[k.e.Src], rename[k.e.Tgt], k.e.Label, k.e.Props); err != nil {
			panic("datalog: normalize edge: " + err.Error())
		}
	}
	return out
}

func propSig(p graph.Properties) string {
	parts := make([]string, 0, len(p))
	for _, k := range graph.PropKeys(p) {
		parts = append(parts, k+"="+p[k])
	}
	return strings.Join(parts, ";")
}
