package datalog

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"provmark/internal/graph"
)

// This file defines the rule language of the Datalog evaluator over
// the n/e/p fact representation of provenance graphs: terms, atoms,
// rules, the fact database, goal queries over its interned indexes,
// and the concrete-syntax parser. Rules are evaluated by the interned
// semi-naive engine (interned.go, with the static checks in engine.go)
// and by the frozen naive reference (naive.go).
//
// The paper stores benchmark results as Datalog precisely so that they
// can be queried; the Dora use case (Section 3.1, suspicious-activity
// detection) writes attack patterns as rules and matches them against
// recorded provenance.
//
// The supported language is Datalog with stratified negation: facts
// node/2, edge/4 and prop/3 are loaded from a graph, rules have a
// single head atom and a conjunctive body over the fact predicates and
// derived predicates. Terms are variables (capitalized), string
// constants ("..."), or the wildcard _. "not p(...)" holds when no
// matching fact is derivable; a negated predicate must be fully
// derivable before the negation is evaluated, so programs whose
// negations cannot be stratified are rejected.

// Term is a variable, constant, or wildcard in a rule atom.
type Term struct {
	// Var holds the variable name when the term is a variable.
	Var string
	// Const holds the constant value when the term is a constant.
	Const string
	// Wild marks the wildcard term.
	Wild bool
}

// V makes a variable term.
func V(name string) Term { return Term{Var: name} }

// C makes a constant term.
func C(value string) Term { return Term{Const: value} }

// W makes the wildcard term.
func W() Term { return Term{Wild: true} }

func (t Term) String() string {
	switch {
	case t.Wild:
		return "_"
	case t.Var != "":
		return t.Var
	default:
		return quote(t.Const)
	}
}

// Atom is a predicate applied to terms, possibly negated (negation as
// failure: "not p(...)" holds when no matching fact is derivable).
// Negated atoms must have all their variables bound by earlier positive
// body atoms, and the program's negations must be stratifiable: a
// predicate may only be negated once every rule deriving it has run to
// completion, so recursion through negation is rejected.
type Atom struct {
	Pred    string
	Terms   []Term
	Negated bool
}

func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	s := a.Pred + "(" + strings.Join(parts, ",") + ")"
	if a.Negated {
		return "not " + s
	}
	return s
}

// Rule derives head facts from a conjunction of body atoms. An empty
// body makes the rule an unconditional fact.
type Rule struct {
	Head Atom
	Body []Atom
}

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Fact is a derived or base tuple.
type Fact struct {
	Pred string
	Args []string
}

func (f Fact) String() string {
	quoted := make([]string, len(f.Args))
	for i, a := range f.Args {
		quoted[i] = quote(a)
	}
	return f.Pred + "(" + strings.Join(quoted, ",") + ")."
}

// relation is the columnar store of one predicate's facts: every
// constant is interned into the database's symbol table and each
// argument position lives in its own dense []uint32 column, so the
// engine and Query join integers, never strings. A relation's arity is
// fixed when it is created — by its first fact, or by the first Run
// rule deriving it — and facts of any other arity are refused. The
// naive oracle's string view materializes Fact values lazily from the
// columns through the symbol table, extending a per-relation
// watermark cache — columns are append-only, so the cache never
// invalidates.
type relation struct {
	pred  string
	arity int
	cols  [][]uint32 // one column per argument position
	rows  int
	// htab dedups rows without per-fact allocation: an open-addressing
	// table of row indices whose keys ARE the column values
	// (compare-on-probe), grown at 3/4 load.
	htab []int32
	// strFacts lazily mirrors the columns as Fact values.
	strFacts []Fact
	// listed records whether the predicate has entered db.preds — it
	// does on the first stored row, not on relation creation, so
	// pre-created head relations that never derive stay invisible.
	listed bool
	// intIdx holds the bound-position indexes Run and Query probe; each
	// builds on first use and extends lazily as rows arrive.
	intIdx map[string]*intIndex
}

// Database holds base and derived facts, interned and stored columnar
// per predicate, plus the bound-position join indexes the engines
// probe.
type Database struct {
	syms  []string          // id -> constant
	symID map[string]uint32 // constant -> id
	rels  map[string]*relation
	preds []string // predicates in first-assert order
	stats EvalStats
	// workers is the Run worker-pool width; 0 selects automatically.
	workers int
	keyBuf  []byte      // scratch for packed index keys
	tupBuf  []uint32    // scratch for interned tuples
	ws      *iWorkspace // sequential evaluation scratch, reused across runs
}

// NewDatabase creates an empty fact database.
func NewDatabase() *Database {
	return &Database{
		symID: map[string]uint32{},
		rels:  map[string]*relation{},
	}
}

// intern returns the dense id of a constant, assigning the next id on
// first sight. The id->string direction is a plain slice lookup, so
// rendering bindings and materializing facts never re-hash.
func (db *Database) intern(s string) uint32 {
	if id, ok := db.symID[s]; ok {
		return id
	}
	id := uint32(len(db.syms))
	db.syms = append(db.syms, s)
	db.symID[s] = id
	return id
}

// packTuple appends the 4-byte little-endian encoding of each value —
// the canonical map key of the integer indexes.
func packTuple(buf []byte, vals []uint32) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return buf
}

// Assert adds a fact if not already present; it reports whether the
// fact was new. A fact whose arity differs from its predicate's
// relation is refused: Assert stores nothing and reports false.
func (db *Database) Assert(f Fact) bool {
	rel := db.getRel(f.Pred, len(f.Args))
	if len(f.Args) != rel.arity {
		return false
	}
	db.tupBuf = db.tupBuf[:0]
	for _, a := range f.Args {
		db.tupBuf = append(db.tupBuf, db.intern(a))
	}
	return db.assertInterned(rel, db.tupBuf)
}

// getRel returns the predicate's relation, creating an empty (and
// unlisted) columnar one of the given arity when absent.
func (db *Database) getRel(pred string, arity int) *relation {
	rel := db.rels[pred]
	if rel == nil {
		rel = &relation{
			pred:  pred,
			arity: arity,
			cols:  make([][]uint32, arity),
		}
		db.rels[pred] = rel
	}
	return rel
}

// list enters the predicate into first-assert order on its first row.
func (db *Database) list(rel *relation) {
	if !rel.listed && rel.rows > 0 {
		rel.listed = true
		db.preds = append(db.preds, rel.pred)
	}
}

// assertInterned is Assert for an already-interned tuple — the
// interned engine's merge path, which never touches strings. The tuple
// must match the relation's arity; Run's arity check guarantees it.
func (db *Database) assertInterned(rel *relation, tuple []uint32) bool {
	if !rel.insertTuple(tuple) {
		return false
	}
	for i, v := range tuple {
		rel.cols[i] = append(rel.cols[i], v)
	}
	rel.rows++
	db.list(rel)
	return true
}

// hashTuple mixes an interned tuple into the open-addressing hash —
// splitmix64-style finalizers over each value, seeded by the arity.
func hashTuple(vals []uint32) uint64 {
	h := uint64(len(vals))*0x9e3779b97f4a7c15 + 0x85ebca6b
	for _, v := range vals {
		x := uint64(v) * 0xbf58476d1ce4e5b9
		x ^= x >> 31
		h = (h ^ x) * 0x94d049bb133111eb
	}
	return h ^ h>>29
}

// insertTuple claims the tuple's slot in the dedup table, recording
// the next row index; it reports false when an equal row exists. The
// caller must append the tuple to the columns immediately after a true
// return, as the claimed slot already points at that row.
func (rel *relation) insertTuple(tuple []uint32) bool {
	if rel.rows*4 >= len(rel.htab)*3 {
		rel.grow()
	}
	mask := uint64(len(rel.htab) - 1)
	slot := hashTuple(tuple) & mask
	for {
		ri := rel.htab[slot]
		if ri < 0 {
			rel.htab[slot] = int32(rel.rows)
			return true
		}
		if rel.rowEq(int(ri), tuple) {
			return false
		}
		slot = (slot + 1) & mask
	}
}

// rowEq compares a stored row against an interned tuple.
func (rel *relation) rowEq(row int, tuple []uint32) bool {
	for i, v := range tuple {
		if rel.cols[i][row] != v {
			return false
		}
	}
	return true
}

// grow doubles (or seeds) the dedup table and rehashes every row.
func (rel *relation) grow() {
	n := 2 * len(rel.htab)
	if n < 16 {
		n = 16
	}
	rel.htab = make([]int32, n)
	for i := range rel.htab {
		rel.htab[i] = -1
	}
	mask := uint64(n - 1)
	tuple := make([]uint32, rel.arity)
	for r := 0; r < rel.rows; r++ {
		for i := range tuple {
			tuple[i] = rel.cols[i][r]
		}
		slot := hashTuple(tuple) & mask
		for rel.htab[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		rel.htab[slot] = int32(r)
	}
}

// strings materializes (and caches) the relation's facts as string
// tuples.
func (rel *relation) strings(db *Database) []Fact {
	for r := len(rel.strFacts); r < rel.rows; r++ {
		args := make([]string, rel.arity)
		for i := range args {
			args[i] = db.syms[rel.cols[i][r]]
		}
		rel.strFacts = append(rel.strFacts, Fact{Pred: rel.pred, Args: args})
	}
	return rel.strFacts
}

// stringFacts returns a predicate's facts as string tuples in
// assertion order — the naive oracle's view. The returned slice is the
// cache; callers must not mutate it.
func (db *Database) stringFacts(pred string) []Fact {
	rel := db.rels[pred]
	if rel == nil {
		return nil
	}
	return rel.strings(db)
}

// Facts returns the tuples of a predicate in assertion order. The
// result is the caller's own: its Args share one fresh backing slice,
// never the database's storage.
func (db *Database) Facts(pred string) []Fact {
	rel := db.rels[pred]
	if rel == nil || rel.rows == 0 {
		return nil
	}
	out := make([]Fact, rel.rows)
	args := make([]string, rel.rows*rel.arity)
	for r := range out {
		row := args[r*rel.arity : (r+1)*rel.arity : (r+1)*rel.arity]
		for i := range row {
			row[i] = db.syms[rel.cols[i][r]]
		}
		out[r] = Fact{Pred: pred, Args: row}
	}
	return out
}

// Predicates returns every predicate with at least one fact, in
// first-assert order.
func (db *Database) Predicates() []string {
	return append([]string(nil), db.preds...)
}

// NumFacts reports the number of facts stored for a predicate without
// materializing them.
func (db *Database) NumFacts(pred string) int {
	rel := db.rels[pred]
	if rel == nil {
		return 0
	}
	return rel.rows
}

// SetParallelism fixes the worker-pool width Run uses for per-stratum
// delta joins: 1 forces sequential evaluation, 0 (the default) picks
// min(GOMAXPROCS, 8). Counters and derived-fact order are identical
// at every width — parallel rounds merge per-worker buffers in a
// deterministic task order at each round barrier.
func (db *Database) SetParallelism(n int) { db.workers = n }

// LoadGraph asserts a property graph as base facts under the standard
// predicates node/2 (id, label), edge/4 (id, src, tgt, label) and
// prop/3 (elem, key, value).
func (db *Database) LoadGraph(g *graph.Graph) {
	for _, n := range g.Nodes() {
		db.Assert(Fact{Pred: "node", Args: []string{string(n.ID), n.Label}})
		for _, k := range graph.PropKeys(n.Props) {
			db.Assert(Fact{Pred: "prop", Args: []string{string(n.ID), k, n.Props[k]}})
		}
	}
	for _, e := range g.Edges() {
		db.Assert(Fact{Pred: "edge", Args: []string{string(e.ID), string(e.Src), string(e.Tgt), e.Label}})
		for _, k := range graph.PropKeys(e.Props) {
			db.Assert(Fact{Pred: "prop", Args: []string{string(e.ID), k, e.Props[k]}})
		}
	}
}

// binding maps variable names to values.
type binding map[string]string

func (b binding) clone() binding {
	out := make(binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// unify extends a binding by matching an atom's terms against a fact.
func unify(a Atom, f Fact, b binding) (binding, bool) {
	if a.Pred != f.Pred || len(a.Terms) != len(f.Args) {
		return nil, false
	}
	out := b
	copied := false
	for i, t := range a.Terms {
		val := f.Args[i]
		switch {
		case t.Wild:
		case t.Var == "":
			if t.Const != val {
				return nil, false
			}
		default:
			if bound, ok := out[t.Var]; ok {
				if bound != val {
					return nil, false
				}
			} else {
				if !copied {
					out = out.clone()
					copied = true
				}
				out[t.Var] = val
			}
		}
	}
	return out, true
}

// substitute instantiates the head atom under a binding.
func substitute(head Atom, b binding) (Fact, error) {
	args := make([]string, len(head.Terms))
	for i, t := range head.Terms {
		switch {
		case t.Wild:
			return Fact{}, fmt.Errorf("datalog: wildcard in rule head %s", head)
		case t.Var != "":
			v, ok := b[t.Var]
			if !ok {
				return Fact{}, fmt.Errorf("datalog: unbound head variable %s in %s", t.Var, head)
			}
			args[i] = v
		default:
			args[i] = t.Const
		}
	}
	return Fact{Pred: head.Pred, Args: args}, nil
}

// Query evaluates a single goal atom against the database and returns
// the matching bindings, deduplicated and sorted for determinism.
// Deduplication matters for goals with wildcards: q(X, _) over q(a,b)
// and q(a,c) yields {X:a} once, not once per matching fact.
//
// A goal with constants probes the relation's interned index on the
// constant positions, counting one JoinProbe per row in the bucket; a
// goal without constants scans every row, counting one each. A
// constant no fact mentions, or a goal whose arity differs from the
// relation's, matches nothing.
func (db *Database) Query(goal Atom) []map[string]string {
	rel := db.rels[goal.Pred]
	if rel == nil || rel.rows == 0 || len(goal.Terms) != rel.arity {
		return nil
	}
	var positions []int
	db.tupBuf = db.tupBuf[:0]
	for i, t := range goal.Terms {
		if t.Var != "" || t.Wild {
			continue
		}
		id, ok := db.symID[t.Const]
		if !ok {
			return nil
		}
		positions = append(positions, i)
		db.tupBuf = append(db.tupBuf, id)
	}
	var out []map[string]string
	dedup := map[string]bool{}
	visit := func(r int) {
		b, ok := db.bindRow(rel, r, goal.Terms)
		if !ok {
			return
		}
		k := bindingKey(b)
		if dedup[k] {
			return
		}
		dedup[k] = true
		out = append(out, b)
	}
	if len(positions) == 0 {
		db.stats.JoinProbes += int64(rel.rows)
		for r := 0; r < rel.rows; r++ {
			visit(r)
		}
	} else {
		ix := rel.intIndexFor(positions)
		db.keyBuf = ix.extend(rel, db.keyBuf)
		db.keyBuf = packTuple(db.keyBuf[:0], db.tupBuf)
		bucket := ix.m[string(db.keyBuf)]
		db.stats.JoinProbes += int64(len(bucket))
		for _, r := range bucket {
			visit(int(r))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bindingKey(out[i]) < bindingKey(out[j])
	})
	return out
}

// bindRow binds the goal's variables to row r of the relation,
// reporting false when a repeated variable meets two different values.
func (db *Database) bindRow(rel *relation, r int, terms []Term) (map[string]string, bool) {
	b := map[string]string{}
	for i, t := range terms {
		if t.Var == "" {
			continue // constants matched the index key; wildcards match all
		}
		v := db.syms[rel.cols[i][r]]
		if prev, ok := b[t.Var]; ok && prev != v {
			return nil, false
		}
		b[t.Var] = v
	}
	return b, true
}

func bindingKey[M ~map[string]string](m M) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
		b.WriteByte(';')
	}
	return b.String()
}

// FormatBindings renders a goal's query bindings deterministically —
// the query reporter shared by provmark -goal and provmark-batch
// -goal, so every surface prints match sets identically.
func FormatBindings(goal Atom, rows []map[string]string) string {
	var b strings.Builder
	if len(rows) == 0 {
		fmt.Fprintf(&b, "query %s: no matches\n", goal)
		return b.String()
	}
	fmt.Fprintf(&b, "query %s: %d match(es)\n", goal, len(rows))
	for _, m := range rows {
		if len(m) == 0 {
			b.WriteString("  (holds)\n")
			continue
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + quote(m[k])
		}
		b.WriteString("  " + strings.Join(parts, " ") + "\n")
	}
	return b.String()
}

// ParseRule parses the concrete syntax "head(...) :- a(...), b(...)."
// with quoted-string constants, capitalized variables, and _ wildcards.
// The head/body split happens at the first top-level ":-" (outside
// quotes and parentheses) and the terminating dot is only stripped
// outside quotes, so constants like ":-" and "." parse correctly.
func ParseRule(s string) (Rule, error) {
	r, _, err := ParseRuleSpans(s)
	return r, err
}

// Span is a half-open byte range [Start, End) of a rule's source text.
type Span struct{ Start, End int }

// RuleSpans locates a parsed rule's atoms in the text ParseRuleSpans
// was given: Head spans the head atom, Body[i] spans Rule.Body[i].
// Each span covers exactly the text its atom was parsed from, with a
// leading "not " included and surrounding white space excluded.
type RuleSpans struct {
	Head Span
	Body []Span
}

// ParseRuleSpans is ParseRule that also returns where each atom lies
// in s, found by the same scan that splits the rule.
func ParseRuleSpans(s string) (Rule, RuleSpans, error) {
	head, body, hasBody := splitRule(s, trimSpan(s, Span{0, len(s)}))
	spans := RuleSpans{Head: trimSpan(s, head)}
	h, err := parseAtom(s[spans.Head.Start:spans.Head.End])
	if err != nil {
		return Rule{}, RuleSpans{}, err
	}
	r := Rule{Head: h}
	if hasBody {
		if spans.Body, err = splitAtoms(s, trimSpan(s, body)); err != nil {
			return Rule{}, RuleSpans{}, err
		}
		r.Body = make([]Atom, len(spans.Body))
		for i, sp := range spans.Body {
			if r.Body[i], err = parseAtom(s[sp.Start:sp.End]); err != nil {
				return Rule{}, RuleSpans{}, err
			}
		}
	}
	return r, spans, nil
}

// ParseAtom parses one positive goal atom, e.g. `suspicious(P)` — the
// goal syntax of provmark -goal and the /v1/query wire request.
func ParseAtom(s string) (Atom, error) {
	a, err := parseAtom(strings.TrimSpace(s))
	if err != nil {
		return Atom{}, err
	}
	if a.Negated {
		return Atom{}, fmt.Errorf("datalog: negated goal %q", s)
	}
	return a, nil
}

// ParseRules parses one rule per non-empty, non-comment line.
func ParseRules(text string) ([]Rule, error) {
	var out []Rule
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		r, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// skipQuoted scans a quoted string starting at s[i] == '"' and returns
// the index just past the closing quote. It is the one quoted-string
// lexer every scanner in this file shares: a backslash consumes the
// following byte, so escaped quotes and escaped backslashes ("x\\")
// cannot confuse the in-string state.
func skipQuoted(s string, i int) (int, bool) {
	i++ // opening quote
	for i < len(s) {
		switch s[i] {
		case '\\':
			i += 2
		case '"':
			return i + 1, true
		default:
			i++
		}
	}
	return i, false
}

// trimSpan shrinks sp past leading and trailing white space, exactly
// as strings.TrimSpace would trim s[sp.Start:sp.End].
func trimSpan(s string, sp Span) Span {
	rest := strings.TrimLeftFunc(s[sp.Start:sp.End], unicode.IsSpace)
	start := sp.End - len(rest)
	return Span{start, start + len(strings.TrimRightFunc(rest, unicode.IsSpace))}
}

// splitRule splits the rule text s[sp.Start:sp.End] into head and
// body at the first top-level ":-" and strips a terminating dot when
// it lies outside quotes.
func splitRule(s string, sp Span) (head, body Span, hasBody bool) {
	s = s[:sp.End]
	// First pass: trim the trailing dot only when the final byte is not
	// inside a quoted constant (`p(".").` keeps its constant).
	lastOutside := -1
	for i := sp.Start; i < len(s); {
		if s[i] == '"' {
			next, ok := skipQuoted(s, i)
			if !ok {
				// Unterminated string: everything to the end is
				// in-string; the atom parsers report the error.
				break
			}
			i = next
			continue
		}
		lastOutside = i
		i++
	}
	if lastOutside >= 0 && lastOutside == len(s)-1 && s[lastOutside] == '.' {
		s = s[:lastOutside]
	}
	// Second pass: find the first ":-" outside quotes and parentheses.
	depth := 0
	for i := sp.Start; i < len(s); {
		switch s[i] {
		case '"':
			next, ok := skipQuoted(s, i)
			if !ok {
				return Span{sp.Start, len(s)}, Span{}, false
			}
			i = next
		case '(':
			depth++
			i++
		case ')':
			depth--
			i++
		case ':':
			if depth == 0 && i+1 < len(s) && s[i+1] == '-' {
				return Span{sp.Start, i}, Span{i + 2, len(s)}, true
			}
			i++
		default:
			i++
		}
	}
	return Span{sp.Start, len(s)}, Span{}, false
}

// splitAtoms splits the body text s[sp.Start:sp.End] ("a(...),
// b(...)") on top-level commas, honouring quoted strings (via the
// shared lexer) and nested parentheses, and returns each atom's
// trimmed span.
func splitAtoms(s string, sp Span) ([]Span, error) {
	text := s[sp.Start:sp.End]
	s = s[:sp.End]
	var out []Span
	depth := 0
	start := sp.Start
	for i := sp.Start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			next, ok := skipQuoted(s, i)
			if !ok {
				return nil, fmt.Errorf("datalog: unterminated body in %q", text)
			}
			i = next
		case c == '(':
			depth++
			i++
		case c == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("datalog: unbalanced parens in %q", text)
			}
			i++
		case c == ',' && depth == 0:
			out = append(out, trimSpan(s, Span{start, i}))
			start = i + 1
			i++
		default:
			i++
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("datalog: unterminated body in %q", text)
	}
	out = append(out, trimSpan(s, Span{start, len(s)}))
	return out, nil
}

func parseAtom(s string) (Atom, error) {
	s = strings.TrimSpace(s)
	negated := false
	if strings.HasPrefix(s, "not ") {
		negated = true
		s = strings.TrimSpace(s[len("not "):])
	}
	a, err := parsePositiveAtom(s)
	if err != nil {
		return Atom{}, err
	}
	a.Negated = negated
	return a, nil
}

func parsePositiveAtom(s string) (Atom, error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("datalog: malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	if !validPred(pred) {
		return Atom{}, fmt.Errorf("datalog: invalid predicate name %q in %q", pred, s)
	}
	argsText := s[open+1 : len(s)-1]
	args, err := splitRawArgs(argsText)
	if err != nil {
		return Atom{}, err
	}
	terms := make([]Term, 0, len(args))
	for _, raw := range args {
		t, err := parseTerm(raw)
		if err != nil {
			return Atom{}, err
		}
		terms = append(terms, t)
	}
	return Atom{Pred: pred, Terms: terms}, nil
}

// validPred restricts predicate names to identifiers. Anything looser
// (quotes, parens, separators inside a name) renders ambiguously and
// breaks the parse/String round trip the fuzzer enforces.
func validPred(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case i > 0 && (c >= '0' && c <= '9' || c == '_'):
		default:
			return false
		}
	}
	return true
}

// splitRawArgs splits a comma-separated argument list WITHOUT
// unquoting, so parseTerm can tell quoted constants from variables.
func splitRawArgs(s string) ([]string, error) {
	var out []string
	start := 0
	for i := 0; i < len(s); {
		switch s[i] {
		case '"':
			next, ok := skipQuoted(s, i)
			if !ok {
				return nil, fmt.Errorf("datalog: unterminated string in %q", s)
			}
			i = next
		case ',':
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
			i++
		default:
			i++
		}
	}
	if last := strings.TrimSpace(s[start:]); last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out, nil
}

func parseTerm(raw string) (Term, error) {
	raw = strings.TrimSpace(raw)
	switch {
	case raw == "_":
		return W(), nil
	case strings.HasPrefix(raw, `"`):
		val, rest, err := scanQuoted(raw)
		if err != nil {
			return Term{}, err
		}
		if strings.TrimSpace(rest) != "" {
			return Term{}, fmt.Errorf("datalog: trailing input after constant in %q", raw)
		}
		return C(val), nil
	case len(raw) > 0 && raw[0] >= 'A' && raw[0] <= 'Z':
		// Variables render bare, so their names must stay unambiguous
		// under re-parsing: identifiers only.
		for i := 1; i < len(raw); i++ {
			c := raw[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
				return Term{}, fmt.Errorf("datalog: invalid variable name %q", raw)
			}
		}
		return V(raw), nil
	case raw == "":
		return Term{}, fmt.Errorf("datalog: empty term")
	default:
		// Lowercase bare atoms are treated as constants (Prolog style).
		return C(raw), nil
	}
}
