package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkWLColors measures one full refinement (the fingerprint's
// inner loop) at increasing graph sizes, under both the frozen
// string-based implementation and the pooled integer engine that
// replaced it. The interned variant reports ~zero allocations per
// refinement once the pool is warm.
func BenchmarkWLColors(b *testing.B) {
	for _, size := range []int{16, 64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(size)))
		g := randomGraph(rng, size, 2*size)
		b.Run(fmt.Sprintf("legacy/n%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wlColorsLegacy(g, 3)
			}
		})
		b.Run(fmt.Sprintf("interned/n%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ws := wlGet()
				wlRefine(g, 3, ws)
				wlPut(ws)
			}
		})
	}
}

// BenchmarkShapeFingerprint contrasts a cold fingerprint computation
// with the memoized path a pipeline run takes after classification has
// warmed the cache.
func BenchmarkShapeFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	b.Run("cold", func(b *testing.B) {
		g := randomGraph(rng, 128, 256)
		for i := 0; i < b.N; i++ {
			g.invalidateCanon()
			g.Fingerprint()
		}
	})
	b.Run("memoized", func(b *testing.B) {
		g := randomGraph(rng, 128, 256)
		g.Fingerprint()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Fingerprint()
		}
	})
}
