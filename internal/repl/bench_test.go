package repl

import (
	"bufio"
	"fmt"
	"io"
	"testing"

	"passjoin"
	"passjoin/internal/dynamic"
)

// BenchmarkLogPublish is the primary-side tax: the mutation hook runs
// under the shard write lock, so Publish is on every Insert/Delete's
// critical path.
func BenchmarkLogPublish(b *testing.B) {
	l := NewLog(0)
	m := passjoin.Mutation{ID: 1, Doc: "benchmark-document"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ID = i
		l.Publish(m)
	}
}

// BenchmarkReplOpsCodec round-trips a full 512-op frame through
// encodeOps/decodeRecords — the wire cost per batch on both ends.
func BenchmarkReplOpsCodec(b *testing.B) {
	ops := make([]dynamic.Op, 512)
	for i := range ops {
		ops[i] = dynamic.Op{ID: int64(i), Doc: fmt.Sprintf("document-%04d", i)}
	}
	payload := encodeOps(1, ops)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeRecords(frameOps, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplApply is the follower-side tax: adopting primary-assigned
// ids via Apply instead of allocating locally via Insert.
func BenchmarkReplApply(b *testing.B) {
	ds, err := passjoin.NewDynamicSearcher(nil, 2, passjoin.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	docs := make([]string, 1024)
	for i := range docs {
		docs[i] = fmt.Sprintf("replicated-doc-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.Apply(passjoin.Mutation{ID: i, Doc: docs[i%len(docs)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplSnapshot streams a 10k-document corpus snapshot the way
// the primary serves a bootstrap — chunking, framing and CRCs included.
func BenchmarkReplSnapshot(b *testing.B) {
	log := NewLog(0)
	ds, err := passjoin.NewDynamicSearcher(nil, 2,
		passjoin.WithShards(4), passjoin.WithMutationHook(log.Publish))
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	for i := 0; i < 10_000; i++ {
		if _, err := ds.Insert(fmt.Sprintf("snapshot-corpus-doc-%05d", i)); err != nil {
			b.Fatal(err)
		}
	}
	src := NewSource(log, ds, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw := bufio.NewWriterSize(io.Discard, 64<<10)
		if _, err := src.writeSnapshot(bw); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
