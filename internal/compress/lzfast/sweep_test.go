package lzfast_test

import (
	"fmt"
	"testing"

	"adaptio/internal/compress/lzfast"
	"adaptio/internal/corpus"
)

// BenchmarkHCSweep is the grid HC{}'s operating point was picked from
// (docs/performance.md, "The hash-chain parse"): search depth x refund x
// key width, on one 128 KB block of each corpus kind. The table there is
//
//	go test -run '^$' -bench HCSweep -benchtime 30x -count 3 ./internal/compress/lzfast/
//
// with the best of the three MB/s readings in each cell.
func BenchmarkHCSweep(b *testing.B) {
	for _, kind := range []corpus.Kind{corpus.High, corpus.Moderate, corpus.Low} {
		src := corpus.Generate(kind, 128<<10, 1)
		dst := make([]byte, 0, 2*len(src))
		for _, key := range []int{4, 5} {
			for _, depth := range []int{4, 8, 12, 16, 32, 64, 256} {
				for _, refund := range []int{0, 4, 8} {
					b.Run(fmt.Sprintf("%s/key%d/depth%d/refund%d", kind, key, depth, refund), func(b *testing.B) {
						b.SetBytes(int64(len(src)))
						for i := 0; i < b.N; i++ {
							dst = lzfast.CompressHCAt(dst[:0], src, depth, refund, key)
						}
						b.ReportMetric(float64(len(dst))/float64(len(src)), "ratio")
					})
				}
			}
		}
	}
}
