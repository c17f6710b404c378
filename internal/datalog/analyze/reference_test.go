package analyze

// The frozen reference span scanner: the second quote/paren scanner
// ParseSource used before the datalog parser reported atom spans
// itself. It re-walked each source line, trimming only space, tab and
// a trailing carriage return. FuzzAnalyzeRules holds the production
// spans to it on lines whose only white space is of those kinds.

// ReferenceSpans exposes the frozen scanner to the external test
// package: the head span and one span per body atom of a rule on line
// lineNo with nBody body atoms.
var ReferenceSpans = spanLine

// spanLine attributes byte spans within one source line to the rule's
// head and each of its nBody body atoms, using the same quote/paren
// discipline as the rule parser. If the scan disagrees with the parsed
// body count (it should not), every atom falls back to the full span.
func spanLine(line string, lineNo, nBody int) (Span, []Span) {
	start := 0
	for start < len(line) && (line[start] == ' ' || line[start] == '\t') {
		start++
	}
	end := len(line)
	for end > start && (line[end-1] == ' ' || line[end-1] == '\t' || line[end-1] == '\r') {
		end--
	}
	// Strip the terminating dot when it lies outside quotes, mirroring
	// splitRule's first pass.
	lastOutside := -1
	for i := start; i < end; {
		if line[i] == '"' {
			next, ok := skipQuotedSpan(line, i)
			if !ok {
				i = end
				break
			}
			i = next
			continue
		}
		lastOutside = i
		i++
	}
	if lastOutside == end-1 && end > start && line[end-1] == '.' {
		end--
	}
	// Find the first top-level ":-".
	op := -1
	depth := 0
	for i := start; i < end && op < 0; {
		switch line[i] {
		case '"':
			next, ok := skipQuotedSpan(line, i)
			if !ok {
				i = end
				continue
			}
			i = next
		case '(':
			depth++
			i++
		case ')':
			depth--
			i++
		case ':':
			if depth == 0 && i+1 < end && line[i+1] == '-' {
				op = i
				continue
			}
			i++
		default:
			i++
		}
	}
	whole := trimSpan(line, lineNo, start, end)
	if op < 0 {
		if nBody != 0 {
			return whole, fallbackSpans(whole, nBody)
		}
		return whole, nil
	}
	head := trimSpan(line, lineNo, start, op)
	pieces := splitSpan(line, lineNo, op+2, end)
	if len(pieces) != nBody {
		return head, fallbackSpans(trimSpan(line, lineNo, op+2, end), nBody)
	}
	return head, pieces
}

// splitSpan splits line[start:end] at top-level commas (outside quotes
// and parentheses) into trimmed spans.
func splitSpan(line string, lineNo, start, end int) []Span {
	var out []Span
	depth := 0
	pieceStart := start
	for i := start; i < end; {
		switch c := line[i]; {
		case c == '"':
			next, ok := skipQuotedSpan(line, i)
			if !ok {
				i = end
				continue
			}
			i = next
		case c == '(':
			depth++
			i++
		case c == ')':
			depth--
			i++
		case c == ',' && depth == 0:
			out = append(out, trimSpan(line, lineNo, pieceStart, i))
			pieceStart = i + 1
			i++
		default:
			i++
		}
	}
	out = append(out, trimSpan(line, lineNo, pieceStart, end))
	return out
}

// trimSpan shrinks [start, end) past surrounding spaces and returns it
// as a 1-based Span.
func trimSpan(line string, lineNo, start, end int) Span {
	for start < end && (line[start] == ' ' || line[start] == '\t') {
		start++
	}
	for end > start && (line[end-1] == ' ' || line[end-1] == '\t') {
		end--
	}
	return Span{Line: lineNo, Col: start + 1, EndCol: end + 1}
}

func fallbackSpans(whole Span, n int) []Span {
	out := make([]Span, n)
	for i := range out {
		out[i] = whole
	}
	return out
}

// skipQuotedSpan mirrors the datalog lexer's skipQuoted: from
// line[i] == '"', return the index just past the closing quote; a
// backslash consumes the following byte.
func skipQuotedSpan(line string, i int) (int, bool) {
	i++
	for i < len(line) {
		switch line[i] {
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
