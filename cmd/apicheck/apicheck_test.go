package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestDefinedOverModuleStruct: a type defined over, or aliasing, a struct
// of another package in the same module lists that struct's exported
// fields under its own name; types over non-structs and over other
// modules' types list only their type line.
func TestDefinedOverModuleStruct(t *testing.T) {
	want := []string{
		"field Alias.Bytes int64",
		"field Alias.Hits int64",
		"field Alias.Misses int64",
		"field Stats.Bytes int64",
		"field Stats.Hits int64",
		"field Stats.Misses int64",
		"type Alias = ctr.Stats",
		"type Count counters.Count",
		"type Stats counters.Stats",
		"type Wait time.Duration",
	}
	got, err := packageSurface(filepath.Join("testdata", "twopkg"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("surface:\n%q\nwant:\n%q", got, want)
	}
}

// TestResolvesAgainstDir: the module is found from the scanned directory,
// not the working directory.
func TestResolvesAgainstDir(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "twopkg"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := packageSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	got, err := packageSurface(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || !slices.Contains(got, "field Stats.Hits int64") {
		t.Fatalf("from another working directory: %q, want %q", got, want)
	}
}

// TestNoModule: a package outside any module whose types are defined over
// an import is an error, not a silently shorter surface.
func TestNoModule(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport \"example.com/q\"\n\ntype T q.T\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := packageSurface(dir); err == nil {
		t.Fatal("no go.mod above the package, and no error")
	}
}
