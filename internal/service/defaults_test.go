package service

import "testing"

// TestAdmissionBurstIsAQuarterOfTheRate: the node's rate cap holds a burst
// of a quarter second's requests, and at least one.
func TestAdmissionBurstIsAQuarterOfTheRate(t *testing.T) {
	for _, tc := range []struct{ rate, burst float64 }{{100, 25}, {2, 1}, {0.001, 1}} {
		s := New(Config{Workers: 1, Admission: Admission{RatePerSec: tc.rate}})
		if s.limiter.burst != tc.burst {
			t.Errorf("rate %v: burst %v, want %v", tc.rate, s.limiter.burst, tc.burst)
		}
		s.Close()
	}
}
