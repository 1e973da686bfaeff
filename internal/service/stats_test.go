package service

import (
	"testing"

	"repro/internal/backend"
)

// TestBackendSlotCoversRegistry: every backend of the registry has a
// counter slot (the slot arrays are sized len(backend.IDs)), and an unknown
// ID has none (slot returns nil rather than panicking, by design).
func TestBackendSlotCoversRegistry(t *testing.T) {
	ids := backend.IDs
	var c Counters
	for _, id := range ids {
		if c.slot(id) == nil {
			t.Errorf("backend %s has no counter slot", id)
		}
	}
	if c.slot(backend.ID("unknown")) != nil {
		t.Error("unknown backend ID should have no slot")
	}
	// Every registered backend must appear in a snapshot, even at zero.
	snap := c.Snapshot()
	for _, id := range ids {
		if _, ok := snap.Backends[string(id)]; !ok {
			t.Errorf("snapshot missing backend %s", id)
		}
	}
}
