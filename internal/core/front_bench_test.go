package core

import (
	"testing"

	"purec/internal/apps"
)

// BenchmarkFront times the whole front end (preprocess through the
// final re-check) on the purecd cold-build template: the Listing-7
// matmul with a checksum loop at N=8.
func BenchmarkFront(b *testing.B) {
	cfg := Config{Parallelize: true, FileName: "request.c",
		Defines: apps.MatmulChecksumDefines(8, 7, "bench")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Front(apps.MatmulChecksumSrc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
