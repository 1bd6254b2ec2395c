package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Records: the one envelope of every write-ahead-log entry
// (internal/dynamic) and every replication frame (internal/repl), nested
// records included — an ops frame's body carries whole WAL records.
//
//	uint32-LE body length | uint32-LE crc32-IEEE of body | body
//
// body[0] is the record's kind; what follows is the kind's business.

const (
	// HeaderLen is the size of a record's length and checksum.
	HeaderLen = 8
	// MaxRecord bounds a record's body, so that a corrupted length cannot
	// force an enormous allocation before its checksum is read. Writers keep
	// under it: internal/dynamic bounds a document, internal/repl a batch.
	MaxRecord = 1 << 26 // 64 MiB
)

// ErrRecord marks a torn, oversized or checksum-mismatched record.
var ErrRecord = errors.New("persist: damaged record")

// AppendRecord appends to dst one record of the given kind whose body
// continues with head and then tail.
func AppendRecord(dst []byte, kind byte, head []byte, tail string) []byte {
	at := len(dst)
	dst = slices.Grow(dst, HeaderLen+1+len(head)+len(tail))
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	dst = append(append(dst, head...), tail...)
	body := dst[at+HeaderLen:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.ChecksumIEEE(body))
	return dst
}

// RecordReader reads one record after another from R.
type RecordReader struct {
	R   io.Reader
	hdr [HeaderLen]byte // one allocation per reader, not per record
}

// Next reads the next record and returns its body, kind byte first. It
// returns io.EOF only at a clean boundary, before any byte of a record;
// anything torn, oversized, empty or checksum-mismatched is an error
// wrapping ErrRecord.
func (rr *RecordReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(rr.R, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header", ErrRecord)
	}
	n := binary.LittleEndian.Uint32(rr.hdr[0:4])
	if n == 0 || n > MaxRecord {
		return nil, fmt.Errorf("%w: length %d outside [1, %d]", ErrRecord, n, MaxRecord)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(rr.R, body); err != nil {
		return nil, fmt.Errorf("%w: torn body", ErrRecord)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rr.hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrRecord)
	}
	return body, nil
}

// Checksummed streams: a PJIX file and the header of a dynamic base
// snapshot are bytes followed by the crc32-IEEE of all of them, uint32-LE.

// SumWriter writes through a buffer and keeps the checksum of every byte
// written; Footer appends it. A failed write sticks to the buffer, which
// accepts no more and reports it from Footer, so no write needs a check of
// its own.
type SumWriter struct {
	bw      *bufio.Writer
	crc     uint32
	n       int64
	scratch [binary.MaxVarintLen64]byte
}

// NewSumWriter starts a checksummed stream on w.
func NewSumWriter(w io.Writer) *SumWriter { return &SumWriter{bw: bufio.NewWriter(w)} }

// Write emits p.
func (s *SumWriter) Write(p []byte) {
	n, _ := s.bw.Write(p)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p[:n])
	s.n += int64(n)
}

// Uvarint emits v as an unsigned varint.
func (s *SumWriter) Uvarint(v uint64) { s.Write(s.scratch[:binary.PutUvarint(s.scratch[:], v)]) }

// Footer emits the checksum, flushes, and returns the bytes written,
// footer included.
func (s *SumWriter) Footer() (int64, error) {
	n, _ := s.bw.Write(binary.LittleEndian.AppendUint32(s.scratch[:0], s.crc))
	return s.n + int64(n), s.bw.Flush()
}

// SumReader keeps the checksum of exactly the bytes handed to its parser —
// unlike an io.TeeReader around the raw source, it is not confused by
// bufio read-ahead, which would also swallow the footer into the sum.
type SumReader struct {
	br      *bufio.Reader
	crc     uint32
	scratch [1]byte
}

// NewSumReader starts a checksummed stream on r. When r is already a
// *bufio.Reader it is read directly, so the stream consumes exactly its own
// bytes of it and the caller can go on parsing from r after Footer.
func NewSumReader(r io.Reader) *SumReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &SumReader{br: br}
}

func (c *SumReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *SumReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.scratch[0] = b
		c.crc = crc32.Update(c.crc, crc32.IEEETable, c.scratch[:])
	}
	return b, err
}

// Footer reads the stored checksum that ends the stream and compares it
// with the one computed over every byte read so far.
func (c *SumReader) Footer() error {
	var footer [4]byte
	if _, err := io.ReadFull(c.br, footer[:]); err != nil {
		return fmt.Errorf("checksum footer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != c.crc {
		return fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", got, c.crc)
	}
	return nil
}
