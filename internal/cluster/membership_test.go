package cluster

import (
	"context"
	"net/http"
	"slices"
	"testing"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestMembershipLeavesNoTrace pins what joining and leaving does to the
// coordinator's view of a member, on a socket cluster of two in-process
// nodes and one node-mode peer: an in-process ID cannot be joined again as
// a peer while it is a member; once removed — here while the failure
// detector holds it dead — it is gone from every membership view, cannot be
// removed twice, and can come back as a peer; removing a peer stops its
// membership, not its server. The package's TestMain then holds Close to
// leaving no goroutine behind.
func TestMembershipLeavesNoTrace(t *testing.T) {
	peer := NewNodeServer("peer-0", service.Config{Workers: 1})
	peerAddr, err := peer.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	back := NewNodeServer("node-0", service.Config{Workers: 1})
	backAddr, err := back.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()

	ft := NewFaultTransport(NewHTTPTransport(), 1)
	c := New(Config{
		Nodes:            2,
		Replicas:         2,
		FailureThreshold: 1,
		Transport:        ft,
		Retry:            fastRetry,
		Service:          service.Config{Workers: 1},
	})
	defer c.Close()
	if err := c.JoinPeer("peer-0", peerAddr); err != nil {
		t.Fatal(err)
	}
	if got, want := c.AliveNodes(), []string{"node-0", "node-1", "peer-0"}; !slices.Equal(got, want) {
		t.Fatalf("alive = %v, want %v", got, want)
	}

	if err := c.JoinPeer("node-0", backAddr); err == nil {
		t.Fatal("JoinPeer under an in-process member's ID accepted")
	}
	if _, err := c.Optimize(context.Background(), genQuery(t, workload.KindChain, 6, 1)); err != nil {
		t.Fatal(err)
	}

	// Dead first, so the removal has to clear the dead list too.
	ft.Cut("node-0")
	c.CheckHealth()
	if snap := c.Snapshot(); !slices.Contains(snap.DeadNodes, "node-0") {
		t.Fatalf("cut node-0 not dead after a sweep: dead %v", snap.DeadNodes)
	}
	if err := c.RemoveNode("node-0"); err != nil {
		t.Fatal(err)
	}
	gone := func(id string) {
		t.Helper()
		if slices.Contains(c.AliveNodes(), id) {
			t.Errorf("%s still alive after RemoveNode", id)
		}
		snap := c.Snapshot()
		if _, ok := snap.PerNode[id]; ok {
			t.Errorf("%s still in Snapshot().PerNode after RemoveNode", id)
		}
		if slices.Contains(snap.DeadNodes, id) || slices.Contains(snap.AliveNodes, id) {
			t.Errorf("%s still listed after RemoveNode: alive %v, dead %v", id, snap.AliveNodes, snap.DeadNodes)
		}
	}
	gone("node-0")
	if err := c.RemoveNode("node-0"); err == nil {
		t.Error("second RemoveNode of node-0 succeeded")
	}

	// The freed ID joins again, now as a peer, and starts healthy.
	if err := c.JoinPeer("node-0", backAddr); err != nil {
		t.Fatalf("rejoining node-0 as a peer: %v", err)
	}
	c.CheckHealth()
	if got, want := c.AliveNodes(), []string{"node-0", "node-1", "peer-0"}; !slices.Equal(got, want) {
		t.Fatalf("alive after rejoin = %v, want %v", got, want)
	}
	if snap := c.Snapshot(); len(snap.DeadNodes) != 0 {
		t.Errorf("dead after rejoin = %v, want none", snap.DeadNodes)
	}

	// Removing a peer ends its membership; its server keeps answering.
	if err := c.RemoveNode("peer-0"); err != nil {
		t.Fatal(err)
	}
	gone("peer-0")
	hresp, err := http.Get("http://" + peerAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("removed peer's /healthz = %d, want 200", hresp.StatusCode)
	}
	res, err := peer.Service().Optimize(context.Background(), genQuery(t, workload.KindChain, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate([]int{0, 1, 2, 3, 4}); err != nil {
		t.Errorf("removed peer's service: %v", err)
	}
}
