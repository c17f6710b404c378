package provjson_test

import (
	"encoding/json"
	"fmt"
	"sort"

	"provmark/internal/graph"
)

// The encoding/json codec that provjson's direct Marshal and Unmarshal
// replaced, kept as the oracle they are checked against: same bytes
// out, same inputs accepted, same graphs built.

var oracleRoles = map[string][2]string{
	"used":              {"prov:activity", "prov:entity"},
	"wasGeneratedBy":    {"prov:entity", "prov:activity"},
	"wasInformedBy":     {"prov:informed", "prov:informant"},
	"wasAssociatedWith": {"prov:activity", "prov:agent"},
	"wasDerivedFrom":    {"prov:generatedEntity", "prov:usedEntity"},
	"wasAttributedTo":   {"prov:entity", "prov:agent"},
}

var oracleNodeKinds = []string{"entity", "activity", "agent"}

type oracleDocument map[string]map[string]map[string]string

func oracleMarshal(g *graph.Graph) ([]byte, error) {
	doc := oracleDocument{}
	section := func(name string) map[string]map[string]string {
		if doc[name] == nil {
			doc[name] = map[string]map[string]string{}
		}
		return doc[name]
	}
	for _, n := range g.Nodes() {
		if !oracleIsNodeKind(n.Label) {
			return nil, fmt.Errorf("provjson: node %s has non-PROV label %q", n.ID, n.Label)
		}
		entry := map[string]string{}
		for k, v := range n.Props {
			entry[k] = v
		}
		section(n.Label)[string(n.ID)] = entry
	}
	for _, e := range g.Edges() {
		roles, ok := oracleRoles[e.Label]
		if !ok {
			roles = [2]string{"prov:from", "prov:to"}
		}
		entry := map[string]string{
			roles[0]: string(e.Src),
			roles[1]: string(e.Tgt),
		}
		for k, v := range e.Props {
			entry[k] = v
		}
		section(e.Label)[string(e.ID)] = entry
	}
	return json.MarshalIndent(doc, "", "  ")
}

func oracleUnmarshal(data []byte) (*graph.Graph, error) {
	var doc oracleDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("provjson: %w", err)
	}
	g := graph.New()
	for _, kind := range oracleNodeKinds {
		for _, id := range oracleSortedKeys(doc[kind]) {
			props := graph.Properties{}
			for k, v := range doc[kind][id] {
				props[k] = v
			}
			if len(props) == 0 {
				props = nil
			}
			if err := g.InsertNode(graph.ElemID(id), kind, props); err != nil {
				return nil, fmt.Errorf("provjson: %w", err)
			}
		}
	}
	relNames := make([]string, 0, len(doc))
	for name := range doc {
		if !oracleIsNodeKind(name) && name != "prefix" {
			relNames = append(relNames, name)
		}
	}
	sort.Strings(relNames)
	for _, rel := range relNames {
		roles, ok := oracleRoles[rel]
		if !ok {
			roles = [2]string{"prov:from", "prov:to"}
		}
		for _, id := range oracleSortedKeys(doc[rel]) {
			entry := doc[rel][id]
			src, okS := entry[roles[0]]
			tgt, okT := entry[roles[1]]
			if !okS || !okT {
				return nil, fmt.Errorf("provjson: relation %s/%s lacks %s or %s", rel, id, roles[0], roles[1])
			}
			props := graph.Properties{}
			for k, v := range entry {
				if k != roles[0] && k != roles[1] {
					props[k] = v
				}
			}
			if len(props) == 0 {
				props = nil
			}
			if err := g.InsertEdge(graph.ElemID(id), graph.ElemID(src), graph.ElemID(tgt), rel, props); err != nil {
				return nil, fmt.Errorf("provjson: %w", err)
			}
		}
	}
	return g, nil
}

func oracleIsNodeKind(s string) bool {
	for _, k := range oracleNodeKinds {
		if s == k {
			return true
		}
	}
	return false
}

func oracleSortedKeys(m map[string]map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
