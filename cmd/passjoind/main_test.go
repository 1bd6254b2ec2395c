package main

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"passjoin"
)

var corpus = []string{"vldb", "pvldb", "sigmod", "sigmmod", "icde", "vldbj"}

func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

func writeCorpusFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.txt")
	data := ""
	for _, s := range corpus {
		data += s + "\n"
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildIndexFromCorpus(t *testing.T) {
	var st passjoin.Stats
	idx, err := buildIndex(writeCorpusFile(t), "", 1, 2, &st)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != len(corpus) || idx.Tau() != 1 || idx.NumShards() != 2 {
		t.Fatalf("len=%d tau=%d shards=%d", idx.Len(), idx.Tau(), idx.NumShards())
	}
	if st.Strings != int64(len(corpus)) {
		t.Fatalf("stats not wired: %+v", st)
	}
	got := idx.Search("vldb")
	if len(got) != 3 || idx.At(got[0].ID) != "vldb" || got[0].Dist != 0 ||
		idx.At(got[1].ID) != "pvldb" || idx.At(got[2].ID) != "vldbj" {
		t.Fatalf("search: %v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	idx, err := buildIndex(writeCorpusFile(t), "", 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "idx.pjix")
	if err := writeSnapshot(idx, snap); err != nil {
		t.Fatal(err)
	}
	re, err := buildIndex("", snap, 99 /* ignored */, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Tau() != 1 || re.Len() != len(corpus) || re.NumShards() != 3 {
		t.Fatalf("reloaded: tau=%d len=%d shards=%d", re.Tau(), re.Len(), re.NumShards())
	}
	// -save over that snapshot with a write that fails half-way keeps it,
	// whole, and leaves nothing beside it.
	before, _ := os.ReadFile(snap)
	if err := writeSnapshot(tornSnapshot(before), snap); err == nil {
		t.Fatal("a torn snapshot write reported success")
	}
	after, err := os.ReadFile(snap)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("after a failed -save the snapshot holds %d bytes (err %v), want the previous %d", len(after), err, len(before))
	}
	if entries, _ := os.ReadDir(filepath.Dir(snap)); len(entries) != 1 {
		t.Fatalf("a failed -save left %d files, want the snapshot alone", len(entries))
	}
}

// tornSnapshot is a snapshot whose write gives out half-way.
type tornSnapshot []byte

func (s tornSnapshot) WriteTo(w io.Writer) (int64, error) {
	n, _ := w.Write(s[:len(s)/2])
	return int64(n), errors.New("disk full")
}

func TestBuildIndexBadFlags(t *testing.T) {
	if _, err := buildIndex("/nonexistent/corpus.txt", "", 1, 1, nil); err == nil {
		t.Error("missing corpus accepted")
	}
	if _, err := buildIndex("", "/nonexistent/idx.pjix", 1, 1, nil); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestBuildDynamicIndexVolatile(t *testing.T) {
	idx, err := buildDynamicIndex(writeCorpusFile(t), "", 1, 2, 0, false, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Len() != len(corpus) || idx.Tau() != 1 || idx.NumShards() != 2 {
		t.Fatalf("len=%d tau=%d shards=%d", idx.Len(), idx.Tau(), idx.NumShards())
	}
	id, err := idx.Insert("vldbx")
	if err != nil {
		t.Fatal(err)
	}
	got := idx.Search("vldb")
	if len(got) != 4 {
		t.Fatalf("search after insert: %v", got)
	}
	if _, err := idx.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := idx.Search("vldb"); len(got) != 3 {
		t.Fatalf("search after delete: %v", got)
	}
}

// TestBuildDynamicIndexDurableRestart seeds a WAL directory from a corpus
// file, mutates, and reopens the same directory — the daemon restart path.
func TestBuildDynamicIndexDurableRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	idx, err := buildDynamicIndex(writeCorpusFile(t), dir, 1, 2, 4, true, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Insert("pods"); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Delete(0); err != nil { // "vldb"
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart at another -shards (corpus file is ignored now): it only
	// sets the build workers.
	re, err := buildDynamicIndex(writeCorpusFile(t), dir, 1, 3, 4, true, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 3 {
		t.Fatalf("-shards 3 not honored on restart: %d", re.NumShards())
	}
	if re.Len() != len(corpus) { // 6 seed - 1 delete + 1 insert
		t.Fatalf("recovered Len=%d want %d", re.Len(), len(corpus))
	}
	if _, ok := re.Get(0); ok {
		t.Fatal("deleted seed doc recovered")
	}
	if doc, ok := re.Get(len(corpus)); !ok || doc != "pods" {
		t.Fatalf("inserted doc not recovered: %q %v", doc, ok)
	}
}

func TestBuildDynamicIndexBadFlags(t *testing.T) {
	if _, err := buildDynamicIndex("/nonexistent/corpus.txt", "", 1, 1, 0, false, discardLogger()); err == nil {
		t.Error("missing corpus accepted")
	}
}

// TestFlagProblem pins the mode-combination rules: every mutually
// exclusive pair is rejected with a pointed diagnostic, every valid
// mode passes.
func TestFlagProblem(t *testing.T) {
	cases := []struct {
		name string
		f    modeFlags
		want string // substring of the diagnostic; "" = accepted
	}{
		{"static", modeFlags{corpusArgs: 1}, ""},
		{"snapshot", modeFlags{snapshot: "idx.pjix"}, ""},
		{"dynamic", modeFlags{dynamic: true}, ""},
		{"wal", modeFlags{wal: "data"}, ""},
		{"wal seed corpus", modeFlags{wal: "data", corpusArgs: 1}, ""},
		{"primary", modeFlags{wal: "data", replListen: ":7879"}, ""},
		{"replica", modeFlags{replicateFrom: "http://p:7879", wal: "data"}, ""},
		{"coordinator member", modeFlags{coordinator: true, members: 3}, ""},
		{"coordinator file", modeFlags{coordinator: true, membersFile: "members.txt"}, ""},
		{"coordinator both", modeFlags{coordinator: true, members: 1, membersFile: "members.txt"}, ""},

		{"static no corpus", modeFlags{}, "usage:"},
		{"static two corpora", modeFlags{corpusArgs: 2}, "usage:"},
		{"snapshot plus corpus", modeFlags{snapshot: "idx.pjix", corpusArgs: 1}, "usage:"},
		{"wal two corpora", modeFlags{wal: "data", corpusArgs: 2}, "usage:"},
		{"wal plus snapshot", modeFlags{wal: "data", snapshot: "idx.pjix"}, "-snapshot cannot be combined"},
		{"dynamic plus save", modeFlags{dynamic: true, save: "idx.pjix"}, "-save applies to the static mode"},
		{"repl-listen static", modeFlags{replListen: ":7879", corpusArgs: 1}, "-repl-listen requires a mutable mode"},
		{"replica no wal", modeFlags{replicateFrom: "http://p:7879"}, "requires -wal DIR"},
		{"replica plus dynamic", modeFlags{replicateFrom: "http://p:7879", wal: "data", dynamic: true}, "read replica"},
		{"replica plus repl-listen", modeFlags{replicateFrom: "http://p:7879", wal: "data", replListen: ":7879"}, "mutually exclusive"},

		{"coordinator no members", modeFlags{coordinator: true}, "requires at least one -member"},
		{"coordinator plus wal", modeFlags{coordinator: true, members: 1, wal: "data"}, "cannot be combined"},
		{"coordinator plus dynamic", modeFlags{coordinator: true, members: 1, dynamic: true}, "cannot be combined"},
		{"coordinator plus replica", modeFlags{coordinator: true, members: 1, replicateFrom: "http://p:7879"}, "cannot be combined"},
		{"coordinator plus repl-listen", modeFlags{coordinator: true, members: 1, replListen: ":7879"}, "cannot be combined"},
		{"coordinator plus snapshot", modeFlags{coordinator: true, members: 1, snapshot: "idx.pjix"}, "cannot be combined"},
		{"coordinator plus save", modeFlags{coordinator: true, members: 1, save: "idx.pjix"}, "cannot be combined"},
		{"coordinator plus corpus", modeFlags{coordinator: true, members: 1, corpusArgs: 1}, "cannot be combined"},
		{"member without coordinator", modeFlags{members: 1, corpusArgs: 1}, "apply only to -coordinator"},
		{"members file without coordinator", modeFlags{membersFile: "members.txt", dynamic: true}, "apply only to -coordinator"},
	}
	for _, tc := range cases {
		got := flagProblem(tc.f)
		if tc.want == "" {
			if got != "" {
				t.Errorf("%s: rejected: %s", tc.name, got)
			}
			continue
		}
		if got == "" {
			t.Errorf("%s: accepted, want diagnostic containing %q", tc.name, tc.want)
		} else if !strings.Contains(got, tc.want) {
			t.Errorf("%s: diagnostic %q missing %q", tc.name, got, tc.want)
		}
	}
}

// TestLoadMembers covers the -member / -members composition: explicit
// flags first, then file lines with comments and blanks skipped.
func TestLoadMembers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members.txt")
	data := "# fleet\nhttp://b:7878\n\nc=http://c:7878\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := loadMembers(coordinatorConfig{
		members:     []string{"a=http://a:7878"},
		membersFile: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].Name != "a" || ms[1].Name != "b:7878" || ms[2].Name != "c" {
		t.Fatalf("loadMembers: %+v", ms)
	}
	if _, err := loadMembers(coordinatorConfig{membersFile: filepath.Join(t.TempDir(), "absent")}); err == nil {
		t.Error("missing members file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadMembers(coordinatorConfig{membersFile: empty}); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := loadMembers(coordinatorConfig{members: []string{"not-a-url"}}); err == nil {
		t.Error("bad member spec accepted")
	}
}
