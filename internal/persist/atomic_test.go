package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write that fails half-way leaves the previous file
// byte for byte and nothing else in the directory; one that succeeds
// replaces it, again leaving nothing else; and a first write needs no file
// to replace.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.pjix")
	write := func(content string, fail error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	requireOnly := func(step, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s: the file holds %q (err %v), want %q", step, got, err, want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s: the directory holds %d entries, want the one file", step, len(entries))
		}
	}
	if err := write("first", nil); err != nil {
		t.Fatal(err)
	}
	requireOnly("first write", "first")
	boom := errors.New("disk full")
	if err := write("half of the sec", boom); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the callback's error", err)
	}
	requireOnly("failed write", "first")
	if err := write("second", nil); err != nil {
		t.Fatal(err)
	}
	requireOnly("second write", "second")
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("a write into a directory that does not exist succeeded")
	}
}
