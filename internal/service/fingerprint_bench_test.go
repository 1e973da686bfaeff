package service

import "testing"

// Canonicalization micro-benchmarks. FingerprintQuery runs on every request
// the front door has not prepared (exact key) and again stats-blind on every
// miss (structural key).

func BenchmarkFingerprintChain20(b *testing.B) {
	q := newChainUniverse(20, 3).window(0, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FingerprintQuery(q)
	}
}

func BenchmarkStructuralFingerprintChain20(b *testing.B) {
	q := newChainUniverse(20, 3).window(0, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StructuralFingerprint(q)
	}
}
