package datalog

// The interned columnar engine — the production evaluation path behind
// Run and RunParallel.
//
// Instead of joining Fact values through map[string]string bindings,
// each stratum is compiled once against the database's interned
// columns: variables become dense slots in a flat []uint32 binding
// row, every body atom becomes a short op list (check a constant id,
// check a slot, set a slot) plus, when any argument position is bound,
// a packed-integer index probe. Evaluation then never touches a string
// — constants were interned at Assert time and bindings round-trip
// through the symbol table only when the caller formats results.
//
// Rounds run under a barrier: every (rule, delta-position) pair of a
// round is an independent task joining against the relation extents
// frozen at the round start, with derivations accumulated in per-task
// buffers and JoinProbes in per-task counters. At the barrier the
// buffers merge into the columns in deterministic task order and the
// counters sum, so the derived fact order and every EvalStats counter
// are bit-identical at any worker-pool width — parallelism is purely a
// wall-clock lever.
//
// A predicate's relation holds exactly one arity, so Run rejects a
// program that uses a predicate at two arities, or at an arity other
// than its stored relation's, before any stratum evaluates.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// intIndex is a bound-position hash index over a relation's columns,
// keyed by the packed little-endian bytes of the values at a fixed set
// of argument positions. It extends incrementally via a row watermark;
// Run extends it only at round starts (never mid-round), so parallel
// workers read it without locks, and Query extends it before probing.
type intIndex struct {
	positions []int
	built     int
	m         map[string][]int32 // packed value key -> row indices
}

// extend indexes rows [built, rel.rows), returning the (possibly
// grown) scratch key buffer.
func (ix *intIndex) extend(rel *relation, buf []byte) []byte {
	for ; ix.built < rel.rows; ix.built++ {
		buf = buf[:0]
		for _, p := range ix.positions {
			v := rel.cols[p][ix.built]
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		ix.m[string(buf)] = append(ix.m[string(buf)], int32(ix.built))
	}
	return buf
}

// intIndexFor returns the relation's (lazily created) integer index
// over the given positions.
func (rel *relation) intIndexFor(positions []int) *intIndex {
	sig := positionSig(positions)
	if rel.intIdx == nil {
		rel.intIdx = map[string]*intIndex{}
	}
	ix := rel.intIdx[sig]
	if ix == nil {
		ix = &intIndex{positions: append([]int(nil), positions...), m: map[string][]int32{}}
		rel.intIdx[sig] = ix
	}
	return ix
}

// iOp is one compiled action at an argument position: compare the
// column value against an interned constant, compare it against a
// binding slot (a variable bound earlier), or write it into a slot (a
// variable's first occurrence). Wildcards compile to nothing.
type iOp struct {
	pos  int
	kind uint8
	val  uint32 // constant id (opCheckConst) or slot index otherwise
}

const (
	opCheckConst uint8 = iota
	opCheckSlot
	opSetSlot
)

// keyPart produces one value of an index-probe key or a head tuple:
// either an interned constant or the current value of a binding slot.
type keyPart struct {
	slot bool
	val  uint32
}

// cAtom is one compiled body atom.
type cAtom struct {
	pred    string
	rel     *relation // nil when the predicate has no facts and never will
	negated bool
	// keyPos/keyParts/idx describe the index probe used when any
	// position is bound before the atom; probeOps verify and bind the
	// remaining positions. scanOps cover every position, for full scans
	// and delta scans.
	keyPos   []int
	keyParts []keyPart
	idx      *intIndex
	probeOps []iOp
	scanOps  []iOp
}

// cRule is one compiled rule.
type cRule struct {
	atoms     []cAtom
	numSlots  int
	headRel   *relation
	headParts []keyPart
}

// headState tracks one head relation's row growth across rounds: prev
// snapshots the extent before a barrier merge, [dLo, dHi) is the fresh
// delta feeding the next round.
type headState struct {
	rel            *relation
	prev, dLo, dHi int
}

// compiledStratum is one stratum's rules compiled against the
// database. Round state — head extents, seed and delta task templates,
// the active-task scratch — is allocated once here and reused every
// round, so a round's fixed overhead is O(rules), not O(allocations).
type compiledStratum struct {
	rules      []cRule
	heads      []headState
	headIdx    map[string]int
	seedTasks  []*iTask // round 0: one per rule, no delta restriction
	deltaTasks []*iTask // one per (rule, recursive body position)
	active     []*iTask // per-round scratch
}

// iTask is one unit of round work: evaluate a rule with the body atom
// at deltaPos (or none, when -1) restricted to delta rows [dLo, dHi).
// Tasks are allocated at compile time and recycled across rounds;
// headIdx locates the delta source for deltaPos tasks.
type iTask struct {
	rule         *cRule
	deltaPos     int
	headIdx      int
	dLo, dHi     int
	derived      []uint32 // flat head tuples, stride = head arity
	derivedCount int
	probes       int64
}

// iWorkspace is one evaluator's scratch: two flat binding slabs, a key
// buffer for probes, reused across tasks and rounds.
type iWorkspace struct {
	cur, next []uint32
	key       []byte
}

// Run evaluates the rules with the interned columnar engine on
// min(GOMAXPROCS, 8) workers. Counters and fact order are identical at
// every worker width.
func (db *Database) Run(rules []Rule) error {
	return db.RunParallel(rules, 0)
}

// RunParallel is Run with an explicit worker-pool width for the
// per-stratum delta joins: 1 evaluates the round tasks inline, 0
// selects min(GOMAXPROCS, 8).
func (db *Database) RunParallel(rules []Rule, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	if err := db.checkArities(rules); err != nil {
		return err
	}
	if vs := safetyViolations(rules); len(vs) > 0 {
		return vs[0]
	}
	strata, v := stratify(rules)
	if v != nil {
		return v
	}
	db.stats.Strata = len(strata)
	for _, stratum := range strata {
		db.runStratumInterned(db.compileStratum(stratum), workers)
	}
	return nil
}

// compileStratum compiles one stratum's rules against the database's
// relations; checkArities has already matched every atom's arity to
// its relation.
func (db *Database) compileStratum(rules []Rule) *compiledStratum {
	cs := &compiledStratum{headIdx: map[string]int{}}
	heads := map[string]*relation{}
	for _, r := range rules {
		if _, ok := heads[r.Head.Pred]; !ok {
			rel := db.getRel(r.Head.Pred, len(r.Head.Terms))
			heads[r.Head.Pred] = rel
			cs.headIdx[r.Head.Pred] = len(cs.heads)
			cs.heads = append(cs.heads, headState{rel: rel})
		}
	}
	for _, r := range rules {
		cs.rules = append(cs.rules, db.compileRule(r, heads))
	}
	// Pre-build every task the stratum can ever run: the round-0 seeds
	// and one recycled task per (rule, recursive body position), in the
	// rule-then-position order rounds schedule them.
	for i := range cs.rules {
		cs.seedTasks = append(cs.seedTasks, &iTask{rule: &cs.rules[i], deltaPos: -1})
	}
	for i := range cs.rules {
		cr := &cs.rules[i]
		for pos := range cr.atoms {
			a := &cr.atoms[pos]
			if a.negated {
				continue
			}
			if hi, ok := cs.headIdx[a.pred]; ok {
				cs.deltaTasks = append(cs.deltaTasks, &iTask{rule: cr, deltaPos: pos, headIdx: hi})
			}
		}
	}
	return cs
}

// compileRule lowers one rule: variables map to slots in first-binding
// order, and each atom's bound-position set — static, because every
// binding reaching an atom binds exactly the variables of the earlier
// positive atoms — selects between an index probe and a full scan.
func (db *Database) compileRule(r Rule, heads map[string]*relation) cRule {
	cr := cRule{}
	slots := map[string]uint32{}
	slot := func(v string) (uint32, bool) {
		s, ok := slots[v]
		if !ok {
			s = uint32(len(slots))
			slots[v] = s
		}
		return s, ok
	}
	for _, a := range r.Body {
		ca := cAtom{pred: a.Pred, negated: a.Negated}
		if rel, ok := heads[a.Pred]; ok {
			ca.rel = rel
		} else {
			ca.rel = db.rels[a.Pred]
		}
		// Positions with a constant or an already-bound variable form
		// the probe key, in term order.
		atomSeen := map[string]uint32{}
		for i, t := range a.Terms {
			switch {
			case t.Wild:
				// no ops anywhere
			case t.Var == "":
				id := db.intern(t.Const)
				ca.keyPos = append(ca.keyPos, i)
				ca.keyParts = append(ca.keyParts, keyPart{val: id})
				ca.scanOps = append(ca.scanOps, iOp{pos: i, kind: opCheckConst, val: id})
			default:
				if s, bound := slots[t.Var]; bound {
					ca.keyPos = append(ca.keyPos, i)
					ca.keyParts = append(ca.keyParts, keyPart{slot: true, val: s})
					ca.scanOps = append(ca.scanOps, iOp{pos: i, kind: opCheckSlot, val: s})
				} else if s, seen := atomSeen[t.Var]; seen {
					// Repeated new variable within the atom: the first
					// occurrence sets the slot, later ones check it.
					ca.probeOps = append(ca.probeOps, iOp{pos: i, kind: opCheckSlot, val: s})
					ca.scanOps = append(ca.scanOps, iOp{pos: i, kind: opCheckSlot, val: s})
				} else {
					s := uint32(len(slots) + len(atomSeen))
					atomSeen[t.Var] = s
					ca.probeOps = append(ca.probeOps, iOp{pos: i, kind: opSetSlot, val: s})
					ca.scanOps = append(ca.scanOps, iOp{pos: i, kind: opSetSlot, val: s})
				}
			}
		}
		if !a.Negated {
			// Negated atoms never bind (safetyViolations enforced it);
			// positive atoms commit their new variables to the slot map.
			for v, s := range atomSeen {
				slots[v] = s
			}
		}
		if len(ca.keyPos) > 0 && ca.rel != nil {
			ca.idx = ca.rel.intIndexFor(ca.keyPos)
		}
		cr.atoms = append(cr.atoms, ca)
	}
	cr.numSlots = len(slots)
	cr.headRel = heads[r.Head.Pred]
	for _, t := range r.Head.Terms {
		if t.Var != "" {
			s, _ := slot(t.Var)
			cr.headParts = append(cr.headParts, keyPart{slot: true, val: s})
		} else {
			cr.headParts = append(cr.headParts, keyPart{val: db.intern(t.Const)})
		}
	}
	return cr
}

// runStratumInterned evaluates one compiled stratum to fixpoint with
// round barriers: an initial round over the current extents seeds the
// deltas, then each following round re-joins every recursive body atom
// against the previous round's delta rows only.
func (db *Database) runStratumInterned(cs *compiledStratum, workers int) {
	tasks := cs.seedTasks
	for {
		db.stats.Iterations++
		db.runRound(cs, tasks, workers)
		// Barrier: snapshot head extents, merge per-task buffers in
		// task order, then read the next deltas off the row growth.
		for i := range cs.heads {
			cs.heads[i].prev = cs.heads[i].rel.rows
		}
		for _, t := range tasks {
			db.stats.JoinProbes += t.probes
			rel := t.rule.headRel
			ar := rel.arity
			for j := 0; j < t.derivedCount; j++ {
				if db.assertInterned(rel, t.derived[j*ar:(j+1)*ar]) {
					db.stats.Derived++
				}
			}
			t.derived = t.derived[:0]
			t.derivedCount = 0
			t.probes = 0
		}
		fresh := false
		for i := range cs.heads {
			h := &cs.heads[i]
			h.dLo, h.dHi = h.prev, h.rel.rows
			if h.dHi > h.dLo {
				fresh = true
			}
		}
		if !fresh {
			return
		}
		// Semi-naive rounds: activate the template task of every (rule,
		// recursive body position) whose predicate grew this round.
		tasks = cs.active[:0]
		for _, t := range cs.deltaTasks {
			h := &cs.heads[t.headIdx]
			if h.dHi > h.dLo {
				t.dLo, t.dHi = h.dLo, h.dHi
				tasks = append(tasks, t)
			}
		}
		cs.active = tasks
	}
}

// runRound evaluates one round's tasks — inline when the pool width or
// task count is 1, otherwise across a bounded worker pool pulling
// tasks from an atomic counter. Indexes extend before any worker
// starts, and every task writes only its own buffers, so the round
// body is data-race-free by construction.
func (db *Database) runRound(cs *compiledStratum, tasks []*iTask, workers int) {
	for i := range cs.rules {
		for _, a := range cs.rules[i].atoms {
			if a.idx != nil {
				db.keyBuf = a.idx.extend(a.rel, db.keyBuf)
			}
		}
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		if db.ws == nil {
			db.ws = &iWorkspace{}
		}
		for _, t := range tasks {
			db.evalTask(t, db.ws)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := &iWorkspace{}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				db.evalTask(tasks[i], ws)
			}
		}()
	}
	wg.Wait()
}

// evalTask joins the rule body left to right over flat integer binding
// rows and appends the instantiated head tuples to the task's buffer.
// It reads only column extents frozen at the round start and writes
// only task-local state, so tasks run concurrently without locks.
func (db *Database) evalTask(t *iTask, ws *iWorkspace) {
	cr := t.rule
	stride := cr.numSlots
	cur, next := ws.cur[:0], ws.next[:0]
	// Seed one binding row; its slots are write-before-read (the
	// compiler orders opSetSlot ahead of every read of a slot), so the
	// scratch needs no zeroing.
	if cap(cur) < stride {
		cur = make([]uint32, stride)
	} else {
		cur = cur[:stride]
	}
	nRows := 1
	for ai := range cr.atoms {
		a := &cr.atoms[ai]
		next = next[:0]
		nextRows := 0
		switch {
		case a.negated:
			for r := 0; r < nRows; r++ {
				row := cur[r*stride : (r+1)*stride]
				if !negHoldsInterned(a, row, ws, &t.probes) {
					next = append(next, row...)
					nextRows++
				}
			}
		case ai == t.deltaPos:
			t.probes += int64(t.dHi-t.dLo) * int64(nRows)
			for r := 0; r < nRows; r++ {
				row := cur[r*stride : (r+1)*stride]
				for ri := t.dLo; ri < t.dHi; ri++ {
					var ok bool
					next, ok = applyOps(a.rel.cols, ri, a.scanOps, row, next)
					if ok {
						nextRows++
					}
				}
			}
		case a.rel == nil || a.rel.rows == 0:
			// Empty relation: no probes, no bindings survive.
		case len(a.keyPos) == 0:
			rows := a.rel.rows
			t.probes += int64(rows) * int64(nRows)
			for r := 0; r < nRows; r++ {
				row := cur[r*stride : (r+1)*stride]
				for ri := 0; ri < rows; ri++ {
					var ok bool
					next, ok = applyOps(a.rel.cols, ri, a.scanOps, row, next)
					if ok {
						nextRows++
					}
				}
			}
		default:
			for r := 0; r < nRows; r++ {
				row := cur[r*stride : (r+1)*stride]
				ws.key = buildKey(ws.key[:0], a.keyParts, row)
				bucket := a.idx.m[string(ws.key)]
				t.probes += int64(len(bucket))
				for _, ri := range bucket {
					var ok bool
					next, ok = applyOps(a.rel.cols, int(ri), a.probeOps, row, next)
					if ok {
						nextRows++
					}
				}
			}
		}
		cur, next = next, cur
		nRows = nextRows
		if nRows == 0 {
			break
		}
	}
	for r := 0; r < nRows; r++ {
		row := cur[r*stride : (r+1)*stride]
		for _, p := range cr.headParts {
			v := p.val
			if p.slot {
				v = row[v]
			}
			t.derived = append(t.derived, v)
		}
		t.derivedCount++
	}
	ws.cur, ws.next = cur, next
}

// applyOps extends next with a copy of row updated by matching columns
// at row index ri against the ops; it reports whether the row matched.
// Set-then-check ordering inside the op list makes repeated variables
// within an atom compare correctly.
func applyOps(cols [][]uint32, ri int, ops []iOp, row, next []uint32) ([]uint32, bool) {
	base := len(next)
	next = append(next, row...)
	nrow := next[base:]
	for _, op := range ops {
		v := cols[op.pos][ri]
		switch op.kind {
		case opCheckConst:
			if v != op.val {
				return next[:base], false
			}
		case opCheckSlot:
			if v != nrow[op.val] {
				return next[:base], false
			}
		default: // opSetSlot
			nrow[op.val] = v
		}
	}
	return next, true
}

// buildKey packs the probe-key values (constants and bound slots) for
// an index lookup.
func buildKey(buf []byte, parts []keyPart, row []uint32) []byte {
	for _, p := range parts {
		v := p.val
		if p.slot {
			v = row[v]
		}
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// negHoldsInterned reports whether any fact matches the negated atom
// under the binding row, counting one probe per candidate examined up
// to and including the first match.
func negHoldsInterned(a *cAtom, row []uint32, ws *iWorkspace, probes *int64) bool {
	if a.rel == nil || a.rel.rows == 0 {
		return false
	}
	if len(a.keyPos) == 0 {
		// All-wildcard (or zero-arity) negation: any fact matches.
		rows := a.rel.rows
		for ri := 0; ri < rows; ri++ {
			*probes++
			if matchOps(a.rel.cols, ri, a.scanOps, row) {
				return true
			}
		}
		return false
	}
	ws.key = buildKey(ws.key[:0], a.keyParts, row)
	for _, ri := range a.idx.m[string(ws.key)] {
		*probes++
		if matchOps(a.rel.cols, int(ri), a.probeOps, row) {
			return true
		}
	}
	return false
}

// matchOps is applyOps without binding output — negated atoms never
// bind, so their op lists contain only checks.
func matchOps(cols [][]uint32, ri int, ops []iOp, row []uint32) bool {
	for _, op := range ops {
		v := cols[op.pos][ri]
		switch op.kind {
		case opCheckConst:
			if v != op.val {
				return false
			}
		case opCheckSlot:
			if v != row[op.val] {
				return false
			}
		}
	}
	return true
}
