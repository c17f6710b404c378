package provmark

import (
	"errors"
	"strconv"
	"testing"

	"provmark/internal/graph"
)

// mkChain builds a labelled chain with an optional volatile property on
// the first node.
func mkChain(t *testing.T, volatile string, labels ...string) *graph.Graph {
	t.Helper()
	g := graph.New()
	var prev graph.ElemID
	for i, l := range labels {
		id := g.AddNode(l, nil)
		if i == 0 && volatile != "" {
			if err := g.SetProp(id, "ts", volatile); err != nil {
				t.Fatal(err)
			}
		}
		if i > 0 {
			if _, err := g.AddEdge(prev, id, "E", nil); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return g
}

// selectPair is the generalization stage's pair choice at the default
// (smallest) size extreme.
func selectPair(trials []*graph.Graph) (*graph.Graph, *graph.Graph, error) {
	return pairFromClasses(trials, NewClassifier().Classes(trials), Smallest)
}

func TestSimilarityClassesGroupByShape(t *testing.T) {
	trials := []*graph.Graph{
		mkChain(t, "1", "A", "B"),
		mkChain(t, "2", "A", "B"),
		mkChain(t, "", "A", "B", "C"),
		mkChain(t, "", "A", "B", "C"),
		mkChain(t, "", "X"),
	}
	classes := NewClassifier().Classes(trials)
	if len(classes) != 3 {
		t.Fatalf("got %d classes, want 3", len(classes))
	}
	sizes := map[int]bool{}
	for _, c := range classes {
		sizes[len(c)] = true
	}
	if !sizes[2] || !sizes[1] {
		t.Errorf("class sizes wrong: %v", classes)
	}
}

// TestSelectPairPrefersSmallestClass: the Section 3.4 strategy — among
// consistent classes, the smallest graphs win (the jittered bigger
// variants lose).
func TestSelectPairPrefersSmallestClass(t *testing.T) {
	small1 := mkChain(t, "1", "A", "B")
	small2 := mkChain(t, "2", "A", "B")
	big1 := mkChain(t, "", "A", "B", "C")
	big2 := mkChain(t, "", "A", "B", "C")
	lone := mkChain(t, "", "X")
	g1, g2, err := selectPair([]*graph.Graph{big1, lone, small1, big2, small2})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Size() != small1.Size() || g2.Size() != small1.Size() {
		t.Errorf("selected sizes %d/%d, want the small class", g1.Size(), g2.Size())
	}
}

func TestSelectPairAllSingletonsFails(t *testing.T) {
	trials := []*graph.Graph{
		mkChain(t, "", "A"),
		mkChain(t, "", "A", "B"),
		mkChain(t, "", "A", "B", "C"),
	}
	if _, _, err := selectPair(trials); !errors.Is(err, ErrInconsistentTrials) {
		t.Errorf("want ErrInconsistentTrials, got %v", err)
	}
}

func TestSelectPairManyClasses(t *testing.T) {
	// Ten trials in three classes; the pair must come from the class
	// with the smallest graphs even if it is not the largest class.
	var trials []*graph.Graph
	for i := 0; i < 5; i++ {
		trials = append(trials, mkChain(t, strconv.Itoa(i), "A", "B", "C", "D"))
	}
	for i := 0; i < 3; i++ {
		trials = append(trials, mkChain(t, strconv.Itoa(i), "A", "B", "C"))
	}
	for i := 0; i < 2; i++ {
		trials = append(trials, mkChain(t, strconv.Itoa(i), "A", "B"))
	}
	g1, _, err := selectPair(trials)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != 2 {
		t.Errorf("selected class with %d nodes, want 2", g1.NumNodes())
	}
}
