package analyze

import (
	"os"
	"strings"

	"provmark/internal/datalog"
)

// This file parses rule sources with positions. datalog.ParseRuleSpans
// parses each line and reports where its head and body atoms lie; the
// offsets become Spans here, so diagnostics can point at the offending
// atom rather than the whole line.

// Program is a parsed rule set with per-rule source positions.
// Rules[i] corresponds to Sources[i].
type Program struct {
	Rules   []datalog.Rule
	Sources []RuleSource
}

// RuleSource locates one rule in its source text.
type RuleSource struct {
	// Line is the 1-based source line.
	Line int
	// Text is the trimmed rule text.
	Text string
	// Head spans the head atom; Body spans each body atom in order.
	Head Span
	Body []Span
}

// ParseSource parses one rule per non-empty, non-comment line —
// exactly the grammar of datalog.ParseRules — but collects every
// malformed line as a positioned parse-error diagnostic instead of
// stopping at the first, and records head/body spans for each rule.
func ParseSource(src string) (*Program, []Diagnostic) {
	prog := &Program{}
	var diags []Diagnostic
	for li, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "%") {
			continue
		}
		lineNo := li + 1
		r, spans, err := datalog.ParseRuleSpans(line)
		if err != nil {
			start := strings.Index(line, trimmed)
			diags = append(diags, Diagnostic{
				Severity: Error,
				Code:     CodeParseError,
				Message:  strings.TrimPrefix(err.Error(), "datalog: "),
				Rule:     -1,
				Span:     Span{Line: lineNo, Col: start + 1, EndCol: start + len(trimmed) + 1},
			})
			continue
		}
		src := RuleSource{Line: lineNo, Text: trimmed, Head: lineSpan(lineNo, spans.Head)}
		for _, sp := range spans.Body {
			src.Body = append(src.Body, lineSpan(lineNo, sp))
		}
		prog.Rules = append(prog.Rules, r)
		prog.Sources = append(prog.Sources, src)
	}
	return prog, diags
}

// CheckFile is Check over a file: parse + analyze, combined sorted
// diagnostics, I/O errors separate.
func CheckFile(path string, opts Options) (*Program, []Diagnostic, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	prog, diags := Check(string(text), opts)
	return prog, diags, nil
}

// FromRules wraps already-parsed rules in a Program with synthetic
// (zero) source positions, for analyzing programmatically built rule
// sets.
func FromRules(rules []datalog.Rule) *Program {
	return &Program{Rules: rules, Sources: make([]RuleSource, len(rules))}
}

// lineSpan converts a byte range of source line lineNo to a 1-based
// Span.
func lineSpan(lineNo int, sp datalog.Span) Span {
	return Span{Line: lineNo, Col: sp.Start + 1, EndCol: sp.End + 1}
}
