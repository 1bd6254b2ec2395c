package dynamic

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestTierDocBound: every live write on a tier, volatile or durable, takes
// a document of exactly MaxDoc bytes and refuses one byte more, so any
// accepted operation fits a persist record even nested in a replication
// frame. The durable tier's record of the largest document replays.
func TestTierDocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("holds hundreds of MB; CI runs it in a non-race step")
	}
	largest := strings.Repeat("x", MaxDoc)
	over := largest + "x"
	dir := t.TempDir()
	for name, cfg := range map[string]Config{
		"volatile": {Tau: 2},
		"durable":  {Tau: 2, WALPath: filepath.Join(dir, "t.wal"), SnapPath: filepath.Join(dir, "t.snap")},
	} {
		tier, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tier.Insert(over); err == nil {
			t.Fatalf("%s: Insert of %d bytes accepted", name, len(over))
		}
		if _, err := tier.Apply(Op{ID: 5, Doc: over}); err == nil {
			t.Fatalf("%s: Apply of %d bytes accepted", name, len(over))
		}
		id, err := tier.Insert(largest)
		if err != nil {
			t.Fatalf("%s: Insert of MaxDoc bytes: %v", name, err)
		}
		if doc, ok := tier.Get(id); !ok || len(doc) != MaxDoc || tier.Len() != 1 {
			t.Fatalf("%s: %d documents, id %d holds %d bytes", name, tier.Len(), id, len(doc))
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
		if cfg.WALPath == "" {
			continue
		}
		re, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if doc, ok := re.Get(id); !ok || doc != largest || re.Len() != 1 {
			t.Fatalf("reopened: %d documents, id %d holds %d bytes", re.Len(), id, len(doc))
		}
		re.Close()
	}
}
