package dynamic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"passjoin/internal/persist"
)

// Base snapshots: the durable form of a tier's frozen base, written by
// compaction (and bootstrap) and read on restart. The file is a small
// dynamic header — the global ids of the base documents, which plain PJIX
// has no notion of — followed by a verbatim PJIX payload (the corpus), so a
// restart reuses the exact cold-start loader the static searchers use and
// builds the base as Bootstrap and compaction do.
//
// Format:
//
//	magic "PJDT" | uvarint version (1) | uvarint nextID hint
//	uvarint count | count × uvarint gid-delta (gids are strictly
//	  increasing; each is stored as the difference from its predecessor+1)
//	uint32-LE crc32-IEEE of all preceding bytes
//	PJIX payload (v3 as written, v1–v3 as read, with or without a frozen
//	  section; self-checksummed; its corpus count must equal count)

const (
	snapMagic   = "PJDT"
	snapVersion = 1
)

// writeBaseSnapshot atomically replaces the snapshot at path with one
// describing (gids, corpus); see persist.WriteFileAtomic.
func writeBaseSnapshot(path string, tau int, nextID int64, gids []int64, corpus []string) error {
	return persist.WriteFileAtomic(path, func(w io.Writer) error {
		return encodeBaseSnapshot(w, tau, nextID, gids, corpus)
	})
}

// encodeBaseSnapshot writes the snapshot's bytes to w.
func encodeBaseSnapshot(w io.Writer, tau int, nextID int64, gids []int64, corpus []string) error {
	hdr := persist.NewSumWriter(w)
	hdr.Write([]byte(snapMagic))
	hdr.Uvarint(snapVersion)
	hdr.Uvarint(uint64(nextID))
	hdr.Uvarint(uint64(len(gids)))
	prev := int64(-1)
	for _, gid := range gids {
		if gid <= prev {
			return fmt.Errorf("dynamic: base gids not strictly increasing (%d after %d)", gid, prev)
		}
		hdr.Uvarint(uint64(gid - prev - 1))
		prev = gid
	}
	if _, err := hdr.Footer(); err != nil {
		return err
	}
	_, err := persist.WriteSnapshot(w, tau, len(corpus), func(i int) string { return corpus[i] })
	return err
}

// readBaseSnapshot parses a snapshot written by writeBaseSnapshot back
// into (gids, corpus, tau, nextID hint).
func readBaseSnapshot(r io.Reader) (gids []int64, corpus []string, tau int, nextID int64, err error) {
	br := bufio.NewReader(r)
	hdr := persist.NewSumReader(br)
	magic := make([]byte, len(snapMagic))
	if _, err = io.ReadFull(hdr, magic); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading snapshot magic: %w", err)
	}
	if string(magic) != snapMagic {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: not a dynamic base snapshot (magic %q)", magic)
	}
	version, err := binary.ReadUvarint(hdr)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading snapshot version: %w", err)
	}
	if version != snapVersion {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: unsupported base snapshot version %d", version)
	}
	next64, err := binary.ReadUvarint(hdr)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading nextID hint: %w", err)
	}
	if next64 > 1<<62 {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: nextID hint %d out of range", next64)
	}
	count, err := binary.ReadUvarint(hdr)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading base count: %w", err)
	}
	gids = make([]int64, 0, min(count, 1<<20))
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		d, derr := binary.ReadUvarint(hdr)
		if derr != nil {
			return nil, nil, 0, 0, fmt.Errorf("dynamic: reading gid %d: %w", i, derr)
		}
		// Every gid lies below the hint: prev+1+d < next64, with no overflow.
		if d >= next64-uint64(prev+1) {
			return nil, nil, 0, 0, fmt.Errorf("dynamic: gid %d out of range", i)
		}
		prev += 1 + int64(d)
		gids = append(gids, prev)
	}
	if err := hdr.Footer(); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: base snapshot header %w", err)
	}
	corpus, tau, err = persist.ReadSnapshot(br)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if len(corpus) != len(gids) {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: snapshot lists %d gids but %d documents", len(gids), len(corpus))
	}
	return gids, corpus, tau, int64(next64), nil
}
