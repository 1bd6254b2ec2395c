// Package persist owns every byte format of the repository. This file is
// the PJIX snapshot codec: a compact serialization of an indexed corpus and
// its threshold. The root passjoin package exposes it as Searcher.WriteTo /
// ReadSearcherFrom; internal/dynamic embeds the same payload inside its base
// snapshots so a dynamic restart reuses the exact cold-start path.
// record.go holds the length + CRC record that every WAL entry and
// replication frame is, and the checksummed stream that PJIX and a base
// snapshot's header are. WriteFileAtomic (atomic.go) is how every file of
// the repository that replaces an older one gets to disk.
//
// A snapshot is a corpus. The segment index (§3.2) is a pure function of the
// strings and tau, and index.BuildFrozen computes it faster than stored
// postings parse (docs/perf/PR-22.md: Author 100k at tau 2 cold-starts in
// about 30 ms from 15.4 B/string, against 45 ms from 26.0 B/string with the
// postings stored), so a reader rebuilds it. Versions 2 and 3 could carry
// the frozen index as a section behind the corpus, and files that do still
// exist: the section is read and skipped, never written. The hasFrozen byte
// stays, at 0, so every build that reads version 3 reads what this one
// writes — by the rebuild path it has always had for a corpus-only file.
// Version 1 is the corpus alone, without flag or checksum.
//
// Format (all integers unsigned varints unless noted):
//
//	magic "PJIX" | version | tau | count | count × (len | bytes)   ── corpus
//	(v2 and v3:)
//	hasFrozen byte (0 as written)
//	if hasFrozen: totalPostings | nGroups | nGroups × group     ── skipped
//	  group: L | (tau+1) × slot
//	  slot:  nKeys | nKeys × ([v2: hash uint64-LE] | count | count × id)
//	crc32-IEEE of all preceding bytes, uint32-LE               ── footer
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	magic     = "PJIX"
	version1  = 1
	version2  = 2
	version3  = 3
	hasFrozen = 1

	maxStringLen = 1 << 30
)

// WriteSnapshot emits a PJIX v3 snapshot of a corpus exposed as (count, at)
// and returns the bytes written.
func WriteSnapshot(w io.Writer, tau, count int, at func(int) string) (int64, error) {
	sw := NewSumWriter(w)
	sw.Write([]byte(magic))
	sw.Uvarint(version3)
	sw.Uvarint(uint64(tau))
	sw.Uvarint(uint64(count))
	for id := 0; id < count; id++ {
		str := at(id)
		sw.Uvarint(uint64(len(str)))
		sw.Write([]byte(str))
	}
	sw.Write([]byte{0}) // hasFrozen: no section follows
	return sw.Footer()
}

// ReadSnapshot parses a PJIX snapshot, of any version, back into (corpus,
// tau). A frozen-index section is walked, checked and dropped.
//
// When r is already a *bufio.Reader it is used directly, so parsing
// consumes exactly the snapshot's bytes from it — internal/dynamic relies
// on this to parse its own header and the embedded PJIX payload from one
// buffered stream.
func ReadSnapshot(r io.Reader) ([]string, int, error) {
	cr := NewSumReader(r)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, 0, fmt.Errorf("passjoin: reading snapshot header: %w", err)
	}
	if string(hdr) != magic {
		return nil, 0, fmt.Errorf("passjoin: not a searcher snapshot (magic %q)", hdr)
	}
	version, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("passjoin: reading snapshot version: %w", err)
	}
	if version < version1 || version > version3 {
		return nil, 0, fmt.Errorf("passjoin: unsupported snapshot version %d", version)
	}
	tau64, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("passjoin: reading threshold: %w", err)
	}
	const maxTau = 1 << 20
	if tau64 > maxTau {
		return nil, 0, fmt.Errorf("passjoin: threshold %d exceeds limit", tau64)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, fmt.Errorf("passjoin: reading corpus size: %w", err)
	}
	// count and every length are attacker-controlled until proven by actual
	// data: the preallocation is capped, and a string's bytes arrive through
	// buf, which grows with what has been received (ReadFrom doubles it from
	// 512 bytes), never to a declared length — a 15-byte file that announces
	// a 1 GiB string must fail on its 15 bytes.
	prealloc := count
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	corpus := make([]string, 0, prealloc)
	var buf bytes.Buffer
	body := io.LimitedReader{R: cr}
	for i := uint64(0); i < count; i++ {
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("passjoin: reading string %d length: %w", i, err)
		}
		if n > maxStringLen {
			return nil, 0, fmt.Errorf("passjoin: string %d length %d exceeds limit", i, n)
		}
		buf.Reset()
		body.N = int64(n)
		if _, err := buf.ReadFrom(&body); err != nil || body.N > 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, fmt.Errorf("passjoin: reading string %d: %w", i, err)
		}
		corpus = append(corpus, buf.String())
	}
	if version == version1 {
		// v1 has no frozen section and no footer, so it must end exactly
		// here: trailing bytes mean the stream is not really v1 (e.g. a
		// later snapshot whose version byte was corrupted), and accepting
		// it would bypass the checksum.
		if _, err := cr.br.ReadByte(); err != io.EOF {
			return nil, 0, fmt.Errorf("passjoin: trailing bytes after v1 snapshot")
		}
		return corpus, int(tau64), nil
	}
	flag, err := cr.ReadByte()
	if err != nil {
		return nil, 0, fmt.Errorf("passjoin: reading frozen-section flag: %w", err)
	}
	switch flag {
	case 0:
	case hasFrozen:
		if err := skipFrozen(cr, int(tau64), uint64(len(corpus)), version == version2); err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("passjoin: invalid frozen-section flag %d", flag)
	}
	if err := cr.Footer(); err != nil {
		return nil, 0, fmt.Errorf("passjoin: snapshot %w", err)
	}
	return corpus, int(tau64), nil
}

// skipFrozen walks the frozen-index section of a file an older build wrote
// and keeps none of it: the index is rebuilt from the corpus. It reads
// through cr, so the checksum still covers every byte and the reader still
// stops exactly where the snapshot does, and it holds every count to what a
// corpus of n strings allows, as the loader it replaces did. storedHashes
// says that each list is preceded by the 8 bytes v2 wrote.
func skipFrozen(cr *SumReader, tau int, n uint64, storedHashes bool) error {
	// next reads one count of the section and refuses it above limit.
	next := func(what string, limit uint64) (uint64, error) {
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, fmt.Errorf("passjoin: frozen section: reading %s: %w", what, err)
		}
		if v > limit {
			return 0, fmt.Errorf("passjoin: frozen section: %s %d exceeds %d", what, v, limit)
		}
		return v, nil
	}
	total, err := next("posting count", n*uint64(tau+1))
	if err != nil {
		return err
	}
	nGroups, err := next("group count", n)
	if err != nil {
		return err
	}
	var hash [8]byte
	for ; nGroups > 0; nGroups-- {
		if _, err := next("group length", maxStringLen); err != nil {
			return err
		}
		for slot := 0; slot <= tau; slot++ {
			nKeys, err := next("slot size", total)
			if err != nil {
				return err
			}
			for ; nKeys > 0; nKeys-- {
				if storedHashes {
					if _, err := io.ReadFull(cr, hash[:]); err != nil {
						return fmt.Errorf("passjoin: frozen section: reading segment hash: %w", err)
					}
				}
				cnt, err := next("posting-list size", total)
				if err == nil && cnt == 0 {
					err = fmt.Errorf("passjoin: frozen section: empty posting list")
				}
				for ; cnt > 0 && err == nil; cnt-- {
					_, err = next("posting id", n-1)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
