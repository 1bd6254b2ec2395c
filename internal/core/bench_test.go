package core

import (
	"testing"

	"passjoin/internal/dataset"
)

// BenchmarkSelfJoinSerial is the default-options self join on the two
// regimes of the bench/ harness: short strings (author names, tau 2), where
// sorting, index build and probing are the time, and long ones (titles,
// tau 8), where verification is.
func BenchmarkSelfJoinSerial(b *testing.B) {
	for _, c := range []struct {
		name   string
		corpus []string
		tau    int
	}{
		{"Author100k/tau=2", dataset.Author(100000, 1), 2},
		{"AuthorTitle20k/tau=8", dataset.AuthorTitle(20000, 1), 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := SelfJoin(c.corpus, Options{Tau: c.tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
