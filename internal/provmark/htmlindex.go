package provmark

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"provmark/internal/wire"
)

// IndexWriter collects per-benchmark HTML reports during a batch run
// and writes an index page linking them — the equivalent of the
// paper's finalResult/index.html produced by runTests.sh.
type IndexWriter struct {
	dir     string
	tool    string
	entries []indexEntry
}

type indexEntry struct {
	benchmark string
	file      string
	summary   string
	empty     bool
}

// NewIndexWriter prepares an output directory for a batch report.
func NewIndexWriter(dir, tool string) (*IndexWriter, error) {
	if err := checkFileNamePart("tool", tool); err != nil {
		return nil, fmt.Errorf("provmark: index: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("provmark: index: %w", err)
	}
	return &IndexWriter{dir: dir, tool: tool}, nil
}

// Add writes one benchmark's HTML page and records it for the index.
// Both render from the wire form, so local and remote cells share one
// path.
func (w *IndexWriter) Add(res *wire.Result) error {
	if err := checkFileNamePart("benchmark", res.Benchmark); err != nil {
		return fmt.Errorf("provmark: index: %w", err)
	}
	file := fmt.Sprintf("%s_%s.html", w.tool, res.Benchmark)
	page := Render(res, HTMLPage)
	if err := os.WriteFile(filepath.Join(w.dir, file), []byte(page), 0o644); err != nil {
		return fmt.Errorf("provmark: index: %w", err)
	}
	summary := "empty (" + res.Reason + ")"
	if !res.Empty {
		summary = res.Target.Summary()
	}
	w.entries = append(w.entries, indexEntry{
		benchmark: res.Benchmark,
		file:      file,
		summary:   summary,
		empty:     res.Empty,
	})
	return nil
}

// Flush writes index.html and returns its path.
func (w *IndexWriter) Flush() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>ProvMark results: %s</title></head><body>\n", htmlEscape(w.tool))
	fmt.Fprintf(&b, "<h1>ProvMark benchmark results — %s</h1>\n", htmlEscape(w.tool))
	b.WriteString("<table border=\"1\"><tr><th>benchmark</th><th>result</th></tr>\n")
	for _, e := range w.entries {
		fmt.Fprintf(&b, "<tr><td><a href=%q>%s</a></td><td>%s</td></tr>\n",
			e.file, htmlEscape(e.benchmark), htmlEscape(e.summary))
	}
	b.WriteString("</table></body></html>\n")
	path := filepath.Join(w.dir, "index.html")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", fmt.Errorf("provmark: index: %w", err)
	}
	return path, nil
}
