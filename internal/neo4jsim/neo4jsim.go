// Package neo4jsim is an in-memory stand-in for the Neo4j graph
// database OPUS stores provenance in. It supports the operations the
// OPUS pipeline needs — creating labelled nodes and relationships with
// properties, updating node properties, and bulk extraction — and
// deliberately models the costs the paper attributes to OPUS's storage
// layer: a one-time warm-up on the first extraction (JVM start-up plus
// store initialization) and per-row extraction work. Figures 6 and 9
// are dominated by exactly these costs.
package neo4jsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"provmark/internal/graph"
)

// NodeID identifies a stored node.
type NodeID int64

// RelID identifies a stored relationship.
type RelID int64

type nodeRec struct {
	id    NodeID
	label string
	props map[string]string
}

type relRec struct {
	id       RelID
	from, to NodeID
	typ      string
	props    map[string]string
}

// DB is one database instance (one OPUS recording).
type DB struct {
	nodes    []nodeRec
	rels     []relRec
	warmedUp bool
	warmWork int // number of warm-up pages to checksum
	scanWork int // extra hash rounds per extracted row
	workSink uint64
}

// Options tunes the simulated storage costs.
type Options struct {
	// WarmupPages is the number of 8 KiB store pages checksummed on the
	// first query, modelling JVM start-up and store recovery. Zero
	// selects the default (a few thousand pages, tens of milliseconds).
	WarmupPages int
	// ScanRoundsPerRow is the per-row decoding work during extraction.
	// Zero selects the default.
	ScanRoundsPerRow int
}

// New creates an empty database.
func New(opts Options) *DB {
	if opts.WarmupPages == 0 {
		opts.WarmupPages = 12000
	}
	if opts.ScanRoundsPerRow == 0 {
		opts.ScanRoundsPerRow = 60
	}
	return &DB{warmWork: opts.WarmupPages, scanWork: opts.ScanRoundsPerRow}
}

// CreateNode stores a node and returns its id.
func (db *DB) CreateNode(label string, props map[string]string) NodeID {
	id := NodeID(len(db.nodes) + 1)
	db.nodes = append(db.nodes, nodeRec{id: id, label: label, props: cloneMap(props)})
	return id
}

// CreateRel stores a relationship between two nodes.
func (db *DB) CreateRel(from, to NodeID, typ string, props map[string]string) (RelID, error) {
	if !db.validNode(from) || !db.validNode(to) {
		return 0, fmt.Errorf("neo4jsim: relationship endpoint missing (%d -> %d)", from, to)
	}
	id := RelID(len(db.rels) + 1)
	db.rels = append(db.rels, relRec{id: id, from: from, to: to, typ: typ, props: cloneMap(props)})
	return id, nil
}

func (db *DB) validNode(id NodeID) bool {
	return id >= 1 && int(id) <= len(db.nodes)
}

// NumNodes reports the stored node count.
func (db *DB) NumNodes() int { return len(db.nodes) }

// warmup performs the one-time start-up cost: checksumming simulated
// store pages. The sink prevents the work from being optimized away.
func (db *DB) warmup() {
	if db.warmedUp {
		return
	}
	db.warmedUp = true
	page := make([]byte, 8192)
	for i := 0; i < db.warmWork; i++ {
		binary.LittleEndian.PutUint64(page, uint64(i)^db.workSink)
		sum := sha256.Sum256(page)
		db.workSink ^= binary.LittleEndian.Uint64(sum[:8])
	}
}

// rowWork models per-row decode cost during extraction.
func (db *DB) rowWork(seed uint64) {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[:8], seed^db.workSink)
	for i := 0; i < db.scanWork; i++ {
		buf = sha256.Sum256(buf[:])
	}
	db.workSink ^= binary.LittleEndian.Uint64(buf[:8])
}

// SetNodeProps merges properties into an existing node (Neo4j's SET
// clause). Unknown ids return false.
func (db *DB) SetNodeProps(id NodeID, props map[string]string) bool {
	if !db.validNode(id) {
		return false
	}
	n := &db.nodes[id-1]
	if n.props == nil {
		n.props = make(map[string]string, len(props))
	}
	for k, v := range props {
		n.props[k] = v
	}
	return true
}

// Export extracts the full database as a property graph (the
// transformation stage's bulk query). It triggers warm-up and performs
// per-row extraction work, so it is deliberately the slowest part of
// the OPUS pipeline.
func (db *DB) Export() (*graph.Graph, error) {
	db.warmup()
	g := graph.New()
	for _, n := range db.nodes {
		db.rowWork(uint64(n.id))
		id := graph.ElemID(fmt.Sprintf("n%d", n.id))
		props := graph.Properties{}
		for k, v := range n.props {
			props[k] = v
		}
		if len(props) == 0 {
			props = nil
		}
		if err := g.InsertNode(id, n.label, props); err != nil {
			return nil, fmt.Errorf("neo4jsim: export: %w", err)
		}
	}
	for _, r := range db.rels {
		db.rowWork(uint64(r.id) << 32)
		id := graph.ElemID(fmt.Sprintf("e%d", r.id))
		props := graph.Properties{}
		for k, v := range r.props {
			props[k] = v
		}
		if len(props) == 0 {
			props = nil
		}
		src := graph.ElemID(fmt.Sprintf("n%d", r.from))
		tgt := graph.ElemID(fmt.Sprintf("n%d", r.to))
		if err := g.InsertEdge(id, src, tgt, r.typ, props); err != nil {
			return nil, fmt.Errorf("neo4jsim: export: %w", err)
		}
	}
	return g, nil
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
