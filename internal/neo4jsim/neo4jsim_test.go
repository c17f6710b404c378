package neo4jsim

import (
	"testing"
	"time"
)

func fastDB() *DB {
	return New(Options{WarmupPages: 1, ScanRoundsPerRow: 1})
}

func TestCreateAndExport(t *testing.T) {
	db := fastDB()
	p := db.CreateNode("Process", map[string]string{"pid": "1"})
	e := db.CreateNode("Event", nil)
	if _, err := db.CreateRel(e, p, "PERFORMED_BY", map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 2 {
		t.Fatalf("counts: %d nodes", db.NumNodes())
	}
	g, err := db.Export()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("export: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	edge := g.Edges()[0]
	if edge.Label != "PERFORMED_BY" || edge.Props["k"] != "v" {
		t.Errorf("edge = %+v", edge)
	}
}

func TestCreateRelValidatesEndpoints(t *testing.T) {
	db := fastDB()
	n := db.CreateNode("X", nil)
	if _, err := db.CreateRel(n, 99, "T", nil); err == nil {
		t.Error("dangling relationship accepted")
	}
	if _, err := db.CreateRel(0, n, "T", nil); err == nil {
		t.Error("zero endpoint accepted")
	}
}

// TestNodeProps: SetNodeProps merges into a node's stored properties
// (Neo4j's SET), refuses unknown ids, and Export hands out copies, so
// editing an exported graph leaves the store unchanged.
func TestNodeProps(t *testing.T) {
	db := fastDB()
	n := db.CreateNode("X", map[string]string{"k": "v"})
	bare := db.CreateNode("Y", nil)
	if !db.SetNodeProps(n, map[string]string{"k2": "v2"}) || !db.SetNodeProps(bare, map[string]string{"a": "b"}) {
		t.Fatal("SetNodeProps refused a stored node")
	}
	if db.SetNodeProps(42, map[string]string{"k": "v"}) {
		t.Error("SetNodeProps accepted a missing node")
	}
	g, err := db.Export()
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	if p := nodes[0].Props; p["k"] != "v" || p["k2"] != "v2" || nodes[1].Props["a"] != "b" {
		t.Fatalf("exported props = %v, %v", nodes[0].Props, nodes[1].Props)
	}
	if err := g.SetProp(nodes[0].ID, "k", "mutated"); err != nil {
		t.Fatal(err)
	}
	again, err := db.Export()
	if err != nil {
		t.Fatal(err)
	}
	if again.Nodes()[0].Props["k"] != "v" {
		t.Error("Export exposed internal properties")
	}
}

// TestWarmupIsOneTime: the first query pays the warm-up cost; later
// queries on the same database do not pay it again.
func TestWarmupIsOneTime(t *testing.T) {
	db := New(Options{WarmupPages: 3000, ScanRoundsPerRow: 1})
	db.CreateNode("X", nil)
	start := time.Now()
	if _, err := db.Export(); err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	start = time.Now()
	if _, err := db.Export(); err != nil {
		t.Fatal(err)
	}
	second := time.Since(start)
	if second > first {
		t.Errorf("second query (%v) slower than warm-up query (%v)", second, first)
	}
}

func TestExportPreservesIdentityAcrossCalls(t *testing.T) {
	db := fastDB()
	a := db.CreateNode("X", nil)
	b := db.CreateNode("Y", nil)
	if _, err := db.CreateRel(a, b, "R", nil); err != nil {
		t.Fatal(err)
	}
	g1, err := db.Export()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := db.Export()
	if err != nil {
		t.Fatal(err)
	}
	if g1.String() != g2.String() {
		t.Error("exports differ")
	}
}
