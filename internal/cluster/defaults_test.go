package cluster

import "testing"

// TestRingPlaces64PointsPerNode: at default options every member owns 64
// points on the ring.
func TestRingPlaces64PointsPerNode(t *testing.T) {
	c := New(Config{Nodes: 3})
	defer c.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	per := map[string]int{}
	for _, p := range c.ring.points {
		per[p.node]++
	}
	if len(per) != 3 {
		t.Fatalf("ring members = %v, want 3", per)
	}
	for node, n := range per {
		if n != 64 {
			t.Errorf("node %s has %d ring points, want 64", node, n)
		}
	}
}
