package dynamic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
		bw := bufio.NewWriter(w)
		crc := crc32.NewIEEE()
		hdr := io.MultiWriter(bw, crc)
		// A failed write sticks to bw, which accepts no more and reports it
		// from Flush: the header's writes need no check of their own.
		var scratch [binary.MaxVarintLen64]byte
		emitUvarint := func(v uint64) {
			_, _ = hdr.Write(scratch[:binary.PutUvarint(scratch[:], v)])
		}
		_, _ = io.WriteString(hdr, snapMagic)
		emitUvarint(snapVersion)
		emitUvarint(uint64(nextID))
		emitUvarint(uint64(len(gids)))
		prev := int64(-1)
		for _, gid := range gids {
			if gid <= prev {
				return fmt.Errorf("dynamic: base gids not strictly increasing (%d after %d)", gid, prev)
			}
			emitUvarint(uint64(gid - prev - 1))
			prev = gid
		}
		_, _ = bw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		if err := bw.Flush(); err != nil {
			return err
		}
		_, err := persist.WriteSnapshot(w, tau, len(corpus), func(i int) string { return corpus[i] })
		return err
	})
}

// readBaseSnapshot parses a snapshot written by writeBaseSnapshot back
// into (gids, corpus, tau, nextID hint).
func readBaseSnapshot(r io.Reader) (gids []int64, corpus []string, tau int, nextID int64, err error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	one := make([]byte, 1)
	readByte := func() (byte, error) {
		b, rerr := br.ReadByte()
		if rerr == nil {
			one[0] = b
			crc.Write(one)
		}
		return b, rerr
	}
	byteReader := byteReaderFunc(readByte)

	hdr := make([]byte, len(snapMagic))
	if _, err = io.ReadFull(io.TeeReader(br, crc), hdr[:]); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading snapshot magic: %w", err)
	}
	if string(hdr) != snapMagic {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: not a dynamic base snapshot (magic %q)", hdr)
	}
	version, err := binary.ReadUvarint(byteReader)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading snapshot version: %w", err)
	}
	if version != snapVersion {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: unsupported base snapshot version %d", version)
	}
	next64, err := binary.ReadUvarint(byteReader)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading nextID hint: %w", err)
	}
	if next64 > 1<<62 {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: nextID hint %d out of range", next64)
	}
	count, err := binary.ReadUvarint(byteReader)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading base count: %w", err)
	}
	gids = make([]int64, 0, min(count, 1<<20))
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		d, derr := binary.ReadUvarint(byteReader)
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
	sum := crc.Sum32()
	var footer [4]byte
	if _, err = io.ReadFull(br, footer[:]); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: reading header checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != sum {
		return nil, nil, 0, 0, fmt.Errorf("dynamic: base snapshot header checksum mismatch (stored %08x, computed %08x)", got, sum)
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

type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }
