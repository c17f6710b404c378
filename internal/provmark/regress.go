package provmark

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"provmark/internal/datalog"
	"provmark/internal/graph"
	"provmark/internal/match"
)

// Store persists benchmark result graphs as Datalog files for
// regression testing (the Charlie use case): each (tool, benchmark)
// pair maps to one file; comparing a new run against the stored graph
// uses the same isomorphism machinery as the pipeline itself.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a regression store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("provmark: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// ErrNoBaseline is returned by Check when no stored graph exists yet.
var ErrNoBaseline = errors.New("provmark: no stored baseline")

// path names the baseline file of a (tool, benchmark) pair.
func (s *Store) path(tool, benchmark string) (string, error) {
	if err := checkFileNamePart("tool", tool); err != nil {
		return "", err
	}
	if err := checkFileNamePart("benchmark", benchmark); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, tool+"__"+benchmark+".dl"), nil
}

// checkFileNamePart rejects a tool or benchmark name that would take a
// file sink's output out of its directory: one containing a path
// separator, or "." or "..". Under provmark-batch -remote both names
// arrive off the server's stream.
func checkFileNamePart(kind, name string) error {
	if name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("unsafe %s name %q", kind, name)
	}
	return nil
}

// Save stores a benchmark result graph as the baseline, normalizing
// identifiers so future comparisons are insensitive to allocation order.
func (s *Store) Save(tool, benchmark string, g *graph.Graph) error {
	path, err := s.path(tool, benchmark)
	if err != nil {
		return fmt.Errorf("provmark: store save: %w", err)
	}
	text := datalog.Print(datalog.Normalize(g), "base")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return fmt.Errorf("provmark: store save: %w", err)
	}
	return nil
}

// Load retrieves the stored baseline graph.
func (s *Store) Load(tool, benchmark string) (*graph.Graph, error) {
	path, err := s.path(tool, benchmark)
	if err != nil {
		return nil, fmt.Errorf("provmark: store load: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoBaseline
		}
		return nil, fmt.Errorf("provmark: store load: %w", err)
	}
	g, _, err := datalog.ParseString(string(data))
	if err != nil {
		return nil, fmt.Errorf("provmark: store load: %w", err)
	}
	return g, nil
}

// Diff describes how a new benchmark graph deviates from the baseline.
type Diff struct {
	Changed bool
	Detail  string
}

// Check compares a fresh benchmark graph against the stored baseline
// using graph similarity (structure and labels): a structural change is
// a regression candidate.
func (s *Store) Check(tool, benchmark string, fresh *graph.Graph) (Diff, error) {
	base, err := s.Load(tool, benchmark)
	if err != nil {
		return Diff{}, err
	}
	if _, ok := match.Similar(base, fresh); ok {
		return Diff{}, nil
	}
	return Diff{
		Changed: true,
		Detail: fmt.Sprintf("baseline %s vs current %s",
			graph.Summarize(base), graph.Summarize(fresh)),
	}, nil
}
