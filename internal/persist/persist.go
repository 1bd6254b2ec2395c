// Package persist implements the PJIX binary snapshot codec: a compact
// serialization of an indexed corpus, its threshold, and (from version 2)
// the frozen segment index itself. The root passjoin package exposes it as
// Searcher.WriteTo / ReadSearcherFrom; internal/dynamic embeds the same
// payload inside its per-shard base snapshots so a dynamic restart reuses
// the exact cold-start path.
//
// Version 1 stored only the corpus and rebuilt the index on load. Version 2
// serializes the frozen index directly — per (length, slot) its posting
// lists — so loading means reading postings instead of re-indexing, and a
// CRC32 footer makes truncated or corrupted snapshots fail loudly. Version
// 2 also stored the 64-bit segment hash of every list; version 3, the one
// written, does not: the loader hashes the list's segment of its first
// posted string, for both versions (v2's stored hashes are read and
// ignored), so no file pins the hash function. Version 1 snapshots remain
// readable (they take the rebuild-on-load path).
//
// Format (all integers unsigned varints unless noted):
//
//	magic "PJIX" | version | tau | count | count × (len | bytes)   ── corpus
//	(v2 and v3:)
//	hasFrozen byte
//	if hasFrozen: totalPostings | nGroups | nGroups × group
//	  group: L | (tau+1) × slot
//	  slot:  nKeys | nKeys × ([v2: hash uint64-LE] | count | count × id)
//	crc32-IEEE of all preceding bytes, uint32-LE               ── footer
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"passjoin/internal/index"
)

const (
	magic     = "PJIX"
	version1  = 1
	version2  = 2
	version3  = 3
	hasFrozen = 1
)

// WriteSnapshot emits a PJIX v3 snapshot for a corpus exposed as (count,
// at), with the frozen index section when fz is non-nil.
func WriteSnapshot(w io.Writer, tau, count int, at func(int) string, fz *index.Frozen) (int64, error) {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	var written int64
	var scratch [binary.MaxVarintLen64]byte
	emit := func(p []byte) error {
		n, err := bw.Write(p)
		written += int64(n)
		crc.Write(p[:n])
		return err
	}
	emitUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		return emit(scratch[:n])
	}
	if err := emit([]byte(magic)); err != nil {
		return written, err
	}
	if err := emitUvarint(version3); err != nil {
		return written, err
	}
	if err := emitUvarint(uint64(tau)); err != nil {
		return written, err
	}
	if err := emitUvarint(uint64(count)); err != nil {
		return written, err
	}
	for id := 0; id < count; id++ {
		str := at(id)
		if err := emitUvarint(uint64(len(str))); err != nil {
			return written, err
		}
		if err := emit([]byte(str)); err != nil {
			return written, err
		}
	}
	if fz == nil {
		if err := emit([]byte{0}); err != nil {
			return written, err
		}
	} else {
		if err := emit([]byte{hasFrozen}); err != nil {
			return written, err
		}
		if err := writeFrozen(emit, emitUvarint, tau, fz); err != nil {
			return written, err
		}
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], crc.Sum32())
	if n, err := bw.Write(footer[:]); err != nil {
		return written + int64(n), err
	}
	written += 4
	if err := bw.Flush(); err != nil {
		return written, err
	}
	return written, nil
}

// writeFrozen emits the frozen-index section in Lengths/slot/table order.
func writeFrozen(emit func([]byte) error, emitUvarint func(uint64) error, tau int, fz *index.Frozen) error {
	if err := emitUvarint(uint64(fz.Entries())); err != nil {
		return err
	}
	lengths := fz.Lengths()
	if err := emitUvarint(uint64(len(lengths))); err != nil {
		return err
	}
	for _, l := range lengths {
		g := fz.Group(l)
		if err := emitUvarint(uint64(l)); err != nil {
			return err
		}
		for i := 1; i <= tau+1; i++ {
			nKeys := 0
			g.Slot(i, func([]int32) { nKeys++ })
			if err := emitUvarint(uint64(nKeys)); err != nil {
				return err
			}
			var slotErr error
			g.Slot(i, func(postings []int32) {
				if slotErr != nil {
					return
				}
				if slotErr = emitUvarint(uint64(len(postings))); slotErr != nil {
					return
				}
				for _, id := range postings {
					if slotErr = emitUvarint(uint64(id)); slotErr != nil {
						return
					}
				}
			})
			if slotErr != nil {
				return slotErr
			}
		}
	}
	return nil
}

// crcReader tracks a CRC32 over exactly the bytes handed to the parser —
// unlike an io.TeeReader around the raw source, it is not confused by
// bufio read-ahead (which would also swallow the footer into the sum).
type crcReader struct {
	br      *bufio.Reader
	crc     hash.Hash32
	scratch [1]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.scratch[0] = b
		c.crc.Write(c.scratch[:])
	}
	return b, err
}

// ReadSnapshot parses a PJIX snapshot back into (corpus, tau, frozen).
// frozen is nil for v1 snapshots and corpus-only snapshots.
//
// When r is already a *bufio.Reader it is used directly, so parsing
// consumes exactly the snapshot's bytes from it — internal/dynamic relies
// on this to parse its own header and the embedded PJIX payload from one
// buffered stream.
func ReadSnapshot(r io.Reader) ([]string, int, *index.Frozen, error) {
	if br, ok := r.(*bufio.Reader); ok {
		return readSnapshot(br)
	}
	return readSnapshot(bufio.NewReader(r))
}

func readSnapshot(br *bufio.Reader) ([]string, int, *index.Frozen, error) {
	cr := &crcReader{br: br, crc: crc32.NewIEEE()}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, 0, nil, fmt.Errorf("passjoin: reading snapshot header: %w", err)
	}
	if string(hdr) != magic {
		return nil, 0, nil, fmt.Errorf("passjoin: not a searcher snapshot (magic %q)", hdr)
	}
	version, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("passjoin: reading snapshot version: %w", err)
	}
	if version < version1 || version > version3 {
		return nil, 0, nil, fmt.Errorf("passjoin: unsupported snapshot version %d", version)
	}
	tau64, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("passjoin: reading threshold: %w", err)
	}
	const maxTau = 1 << 20
	if tau64 > maxTau {
		return nil, 0, nil, fmt.Errorf("passjoin: threshold %d exceeds limit", tau64)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("passjoin: reading corpus size: %w", err)
	}
	const maxStringLen = 1 << 30
	// count is attacker-controlled until proven by actual data; cap the
	// preallocation so a corrupt header cannot panic or OOM the process.
	prealloc := count
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	corpus := make([]string, 0, prealloc)
	for i := uint64(0); i < count; i++ {
		n, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("passjoin: reading string %d length: %w", i, err)
		}
		if n > maxStringLen {
			return nil, 0, nil, fmt.Errorf("passjoin: string %d length %d exceeds limit", i, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, 0, nil, fmt.Errorf("passjoin: reading string %d: %w", i, err)
		}
		corpus = append(corpus, string(buf))
	}
	if version == version1 {
		// v1 has no frozen section and no footer, so it must end exactly
		// here: trailing bytes mean the stream is not really v1 (e.g. a
		// later snapshot whose version byte was corrupted), and accepting
		// it would bypass the checksum.
		if _, err := br.ReadByte(); err != io.EOF {
			return nil, 0, nil, fmt.Errorf("passjoin: trailing bytes after v1 snapshot")
		}
		return corpus, int(tau64), nil, nil
	}
	flag, err := cr.ReadByte()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("passjoin: reading frozen-section flag: %w", err)
	}
	var fz *index.Frozen
	switch flag {
	case 0:
	case hasFrozen:
		fz, err = readFrozen(cr, int(tau64), corpus, version == version2)
		if err != nil {
			return nil, 0, nil, err
		}
	default:
		return nil, 0, nil, fmt.Errorf("passjoin: invalid frozen-section flag %d", flag)
	}
	sum := cr.crc.Sum32()
	var footer [4]byte
	if _, err := io.ReadFull(br, footer[:]); err != nil {
		return nil, 0, nil, fmt.Errorf("passjoin: reading checksum footer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != sum {
		return nil, 0, nil, fmt.Errorf("passjoin: snapshot checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	return corpus, int(tau64), fz, nil
}

// readFrozen parses the frozen-index section, streaming it through a
// FrozenBuilder — which validates group lengths, posting ids, and arena
// bounds against the already-loaded corpus, and hashes every list's segment
// itself — into the materialized index. storedHashes says that each list is
// preceded by the 8 bytes v2 wrote, which are skipped.
func readFrozen(cr *crcReader, tau int, corpus []string, storedHashes bool) (*index.Frozen, error) {
	total, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("passjoin: reading posting count: %w", err)
	}
	if total > uint64(len(corpus))*uint64(tau+1) {
		return nil, fmt.Errorf("passjoin: posting count %d impossible for corpus of %d strings", total, len(corpus))
	}
	b, err := index.NewFrozenBuilder(tau, corpus, int64(total))
	if err != nil {
		return nil, fmt.Errorf("passjoin: frozen section: %w", err)
	}
	nGroups, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("passjoin: reading group count: %w", err)
	}
	if nGroups > uint64(len(corpus)) {
		return nil, fmt.Errorf("passjoin: group count %d exceeds corpus size", nGroups)
	}
	var hbuf [8]byte
	var postings []int32
	for gi := uint64(0); gi < nGroups; gi++ {
		l, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, fmt.Errorf("passjoin: reading group %d length: %w", gi, err)
		}
		if err := b.BeginGroup(int(l)); err != nil {
			return nil, fmt.Errorf("passjoin: frozen section: %w", err)
		}
		for i := 1; i <= tau+1; i++ {
			nKeys, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, fmt.Errorf("passjoin: reading slot size: %w", err)
			}
			if nKeys > total {
				return nil, fmt.Errorf("passjoin: slot key count %d exceeds posting count %d", nKeys, total)
			}
			if err := b.BeginSlot(i, int(nKeys)); err != nil {
				return nil, fmt.Errorf("passjoin: frozen section: %w", err)
			}
			for k := uint64(0); k < nKeys; k++ {
				if storedHashes {
					if _, err := io.ReadFull(cr, hbuf[:]); err != nil {
						return nil, fmt.Errorf("passjoin: reading segment hash: %w", err)
					}
				}
				cnt, err := binary.ReadUvarint(cr)
				if err != nil {
					return nil, fmt.Errorf("passjoin: reading posting-list size: %w", err)
				}
				if cnt == 0 || cnt > total {
					return nil, fmt.Errorf("passjoin: invalid posting-list size %d", cnt)
				}
				postings = postings[:0]
				for p := uint64(0); p < cnt; p++ {
					id, err := binary.ReadUvarint(cr)
					if err != nil {
						return nil, fmt.Errorf("passjoin: reading posting: %w", err)
					}
					if id >= uint64(len(corpus)) {
						return nil, fmt.Errorf("passjoin: posting id %d outside corpus", id)
					}
					postings = append(postings, int32(id))
				}
				if err := b.AddList(postings); err != nil {
					return nil, fmt.Errorf("passjoin: frozen section: %w", err)
				}
			}
		}
	}
	fz, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("passjoin: frozen section: %w", err)
	}
	return fz, nil
}
