package dynamic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"passjoin/internal/index"
	"passjoin/internal/persist"
)

// Base snapshots: the durable form of a tier's frozen base, written by
// compaction (and bootstrap) and read on restart. The file is a small
// dynamic header — the global ids of the base documents, which plain PJIX
// has no notion of — followed by a verbatim PJIX payload (corpus +
// frozen CSR arena), so a restart reuses the exact cold-start loader the
// static searchers use.
//
// Format:
//
//	magic "PJDT" | uvarint version (1) | uvarint nextID hint
//	uvarint count | count × uvarint gid-delta (gids are strictly
//	  increasing; each is stored as the difference from its predecessor+1)
//	uint32-LE crc32-IEEE of all preceding bytes
//	PJIX payload (v3 as written, v1–v3 as read; self-checksummed; its
//	  corpus count must equal count)

const (
	snapMagic   = "PJDT"
	snapVersion = 1
)

// writeBaseSnapshot atomically replaces the snapshot at path with one
// describing (gids, corpus, fz): written to a temp file, synced, renamed.
func writeBaseSnapshot(path string, tau int, nextID int64, gids []int64, corpus []string, fz *index.Frozen) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}

	bw := bufio.NewWriter(tmp)
	crc := crc32.NewIEEE()
	var scratch [binary.MaxVarintLen64]byte
	emit := func(p []byte) error {
		n, werr := bw.Write(p)
		crc.Write(p[:n])
		return werr
	}
	emitUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		return emit(scratch[:n])
	}
	if err := emit([]byte(snapMagic)); err != nil {
		cleanup()
		return err
	}
	if err := emitUvarint(snapVersion); err != nil {
		cleanup()
		return err
	}
	if err := emitUvarint(uint64(nextID)); err != nil {
		cleanup()
		return err
	}
	if err := emitUvarint(uint64(len(gids))); err != nil {
		cleanup()
		return err
	}
	prev := int64(-1)
	for _, gid := range gids {
		if gid <= prev {
			cleanup()
			return fmt.Errorf("dynamic: base gids not strictly increasing (%d after %d)", gid, prev)
		}
		if err := emitUvarint(uint64(gid - prev - 1)); err != nil {
			cleanup()
			return err
		}
		prev = gid
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], crc.Sum32())
	if _, err := bw.Write(footer[:]); err != nil {
		cleanup()
		return err
	}
	if err := bw.Flush(); err != nil {
		cleanup()
		return err
	}
	if _, err := persist.WriteSnapshot(tmp, tau, len(corpus), func(i int) string { return corpus[i] }, fz); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		cleanup()
		return err
	}
	return nil
}

// readBaseSnapshot parses a snapshot written by writeBaseSnapshot back
// into (gids, corpus, frozen index, tau, nextID hint).
func readBaseSnapshot(r io.Reader) (gids []int64, corpus []string, fz *index.Frozen, tau int, nextID int64, err error) {
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
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: reading snapshot magic: %w", err)
	}
	if string(hdr) != snapMagic {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: not a dynamic base snapshot (magic %q)", hdr)
	}
	version, err := binary.ReadUvarint(byteReader)
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: reading snapshot version: %w", err)
	}
	if version != snapVersion {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: unsupported base snapshot version %d", version)
	}
	next64, err := binary.ReadUvarint(byteReader)
	if err != nil || next64 > 1<<62 {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: reading nextID hint: %w", err)
	}
	count, err := binary.ReadUvarint(byteReader)
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: reading base count: %w", err)
	}
	prealloc := count
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	gids = make([]int64, 0, prealloc)
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		d, derr := binary.ReadUvarint(byteReader)
		if derr != nil {
			return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: reading gid %d: %w", i, derr)
		}
		if d > 1<<62 {
			return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: gid %d out of range", i)
		}
		gid := prev + 1 + int64(d)
		if gid < 0 || int64(next64) <= gid {
			return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: gid %d out of range", i)
		}
		gids = append(gids, gid)
		prev = gid
	}
	sum := crc.Sum32()
	var footer [4]byte
	if _, err = io.ReadFull(br, footer[:]); err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: reading header checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != sum {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: base snapshot header checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	corpus, tau, fz, err = persist.ReadSnapshot(br)
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	if len(corpus) != len(gids) {
		return nil, nil, nil, 0, 0, fmt.Errorf("dynamic: snapshot lists %d gids but %d documents", len(gids), len(corpus))
	}
	return gids, corpus, fz, tau, int64(next64), nil
}

type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }
