package service

import "testing"

// Canonicalization micro-benchmark. FingerprintQuery runs on every request
// the front door has not prepared.

func BenchmarkFingerprintChain20(b *testing.B) {
	q := newChainUniverse(20, 3).window(0, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FingerprintQuery(q)
	}
}
