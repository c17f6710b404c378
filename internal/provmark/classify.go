package provmark

import (
	"sort"
	"sync/atomic"

	"provmark/internal/graph"
	"provmark/internal/match"
)

// Classifier is the fingerprint-indexed similarity classification
// engine of the generalization stage. Instead of testing every trial
// against every class representative with the full matcher, it hashes
// trials into buckets by their memoized shape fingerprint and runs the
// confirming matcher only on within-bucket collisions (fingerprint
// equality is a necessary condition for similarity, never a
// certificate).
//
// Classification keeps no state between calls: the generalization
// stage hands every call freshly recorded trial graphs, so there is
// nothing to reuse, and holding on to them would only keep them
// reachable. A Classifier carries instrumentation counters alone and
// is safe for concurrent use.
type Classifier struct {
	graphs   atomic.Uint64
	confirms atomic.Uint64
}

// ClassifierStats counts the engine's work for instrumentation.
type ClassifierStats struct {
	// Graphs is how many trial graphs have been bucketed.
	Graphs uint64
	// Confirms is how many matcher confirmations actually ran.
	Confirms uint64
	// CacheHits is always 0: the engine caches no verdicts. The field
	// is kept for existing readers of the counters.
	CacheHits uint64
}

// NewClassifier returns a classification engine with zeroed counters.
func NewClassifier() *Classifier {
	return &Classifier{}
}

// Stats snapshots the engine's instrumentation counters.
func (c *Classifier) Stats() ClassifierStats {
	return ClassifierStats{Graphs: c.graphs.Load(), Confirms: c.confirms.Load()}
}

// Classes partitions trials into similarity classes and returns the
// member indices of each class, classes ordered by first member and
// members ascending — the same deterministic shape the linear-scan
// implementation produced.
func (c *Classifier) Classes(trials []*graph.Graph) [][]int {
	// Bucket by fingerprint. Fingerprints are memoized on the graphs,
	// so this pass computes each trial's canonical refinement at most
	// once — and warms the WL-colour cache the confirming matchers
	// read.
	var order []string
	buckets := make(map[string][]int, len(trials))
	for i, g := range trials {
		fp := g.Fingerprint()
		if _, seen := buckets[fp]; !seen {
			order = append(order, fp)
		}
		buckets[fp] = append(buckets[fp], i)
	}
	c.graphs.Add(uint64(len(trials)))

	// Classify each bucket independently: a linear scan against class
	// representatives, confirming with the pairwise matcher.
	var classes [][]int
	for _, fp := range order {
		var bucket [][]int
		for _, i := range buckets[fp] {
			placed := false
			for ci, cl := range bucket {
				c.confirms.Add(1)
				if _, ok := match.Similar(trials[cl[0]], trials[i]); ok {
					bucket[ci] = append(bucket[ci], i)
					placed = true
					break
				}
			}
			if !placed {
				bucket = append(bucket, []int{i})
			}
		}
		classes = append(classes, bucket...)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}
