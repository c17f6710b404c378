package graph

import (
	"strings"
	"testing"
)

func TestAddNodeAssignsFreshIDs(t *testing.T) {
	g := New()
	a := g.AddNode("X", nil)
	b := g.AddNode("Y", nil)
	if a == b {
		t.Fatalf("ids collide: %s", a)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("want 2 nodes, got %d", g.NumNodes())
	}
	if g.Node(a).Label != "X" || g.Node(b).Label != "Y" {
		t.Error("labels not stored")
	}
}

func TestInsertNodeRejectsDuplicates(t *testing.T) {
	g := New()
	if err := g.InsertNode("n1", "X", nil); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertNode("n1", "Y", nil); err == nil {
		t.Error("duplicate node id accepted")
	}
	// AddNode must skip over manually inserted ids.
	id := g.AddNode("Z", nil)
	if id == "n1" {
		t.Error("AddNode reused a taken id")
	}
}

func TestAddEdgeValidatesEndpoints(t *testing.T) {
	g := New()
	a := g.AddNode("X", nil)
	if _, err := g.AddEdge(a, "missing", "E", nil); err == nil {
		t.Error("edge to missing node accepted")
	}
	if _, err := g.AddEdge("missing", a, "E", nil); err == nil {
		t.Error("edge from missing node accepted")
	}
	b := g.AddNode("Y", nil)
	id, err := g.AddEdge(a, b, "E", Properties{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(id)
	if e.Src != a || e.Tgt != b || e.Label != "E" || e.Props["k"] != "v" {
		t.Errorf("edge fields wrong: %+v", e)
	}
}

func TestPropsAreCopiedAtBoundaries(t *testing.T) {
	g := New()
	props := Properties{"k": "v"}
	a := g.AddNode("X", props)
	props["k"] = "mutated"
	if g.Node(a).Props["k"] != "v" {
		t.Error("AddNode aliased the caller's map")
	}
}

func TestSetAndDeleteProp(t *testing.T) {
	g := New()
	a := g.AddNode("X", nil)
	b := g.AddNode("Y", nil)
	e, err := g.AddEdge(a, b, "E", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetProp(a, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetProp(e, "ek", "ev"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetProp("nope", "k", "v"); err == nil {
		t.Error("SetProp on missing element accepted")
	}
	if g.Node(a).Props["k"] != "v" || g.Edge(e).Props["ek"] != "ev" {
		t.Error("props not set")
	}
	g.DeleteProp(a, "k")
	g.DeleteProp(e, "ek")
	if len(g.Node(a).Props) != 0 || len(g.Edge(e).Props) != 0 {
		t.Error("props not deleted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New()
	a := g.AddNode("X", Properties{"k": "v"})
	b := g.AddNode("Y", nil)
	if _, err := g.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if err := c.SetProp(a, "k", "changed"); err != nil {
		t.Fatal(err)
	}
	c.AddNode("Z", nil)
	if g.Node(a).Props["k"] != "v" {
		t.Error("clone shares property maps")
	}
	if g.NumNodes() != 2 {
		t.Error("clone shares node list")
	}
}

func TestRemoveNodeCascades(t *testing.T) {
	g := New()
	a := g.AddNode("X", nil)
	b := g.AddNode("Y", nil)
	c := g.AddNode("Z", nil)
	if _, err := g.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	e2, err := g.AddEdge(b, c, "E", nil)
	if err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(a)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("after remove: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Edge(e2) == nil {
		t.Error("unrelated edge removed")
	}
	g.RemoveEdge(e2)
	if g.NumEdges() != 0 {
		t.Error("edge not removed")
	}
	g.RemoveEdge("nonexistent") // must not panic
}

func TestDegreeAndIncidence(t *testing.T) {
	g := New()
	a := g.AddNode("X", nil)
	b := g.AddNode("Y", nil)
	if _, err := g.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a, a, "Self", nil); err != nil {
		t.Fatal(err)
	}
	if d := len(g.InEdges(a)) + len(g.OutEdges(a)); d != 3 { // out to b, self counts twice
		t.Errorf("degree(a) = %d, want 3", d)
	}
	if len(g.OutEdges(a)) != 2 || len(g.InEdges(b)) != 1 {
		t.Error("incidence lists wrong")
	}
}

func TestInsertionOrderIsStable(t *testing.T) {
	g := New()
	want := []string{"C", "A", "B"}
	for _, l := range want {
		g.AddNode(l, nil)
	}
	for i, n := range g.Nodes() {
		if n.Label != want[i] {
			t.Fatalf("order violated at %d: %s", i, n.Label)
		}
	}
}

func TestStringRendering(t *testing.T) {
	g := New()
	a := g.AddNode("X", Properties{"b": "2", "a": "1"})
	b := g.AddNode("Y", nil)
	if _, err := g.AddEdge(a, b, "E", nil); err != nil {
		t.Fatal(err)
	}
	s := g.String()
	if !strings.Contains(s, `a="1", b="2"`) {
		t.Errorf("props not sorted in rendering:\n%s", s)
	}
	if !strings.Contains(s, "-E->") {
		t.Errorf("edge missing in rendering:\n%s", s)
	}
}
