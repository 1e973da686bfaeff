package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/cluster"
)

// MountClusterAdmin registers the cluster-only membership surface on the
// shared mux: GET /cluster (membership and ring summary) and the POST
// admin verbs /cluster/add, /cluster/remove?node=, /cluster/kill?node=,
// /cluster/revive?node=. Both cmd/mpdp-cluster and the examples mount it,
// so the admin wire surface has one definition too.
func MountClusterAdmin(a *API, c *cluster.Cluster) {
	needNode := func(node string) error {
		if node == "" {
			return fmt.Errorf("missing ?node=")
		}
		return nil
	}
	op := func(f func(node string) (string, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST", http.StatusMethodNotAllowed)
				return
			}
			msg, err := f(r.URL.Query().Get("node"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"ok\":true,\"detail\":%q}\n", msg)
		}
	}
	a.Handle("/cluster", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := c.Snapshot()
		out := map[string]any{
			"alive_nodes": snap.AliveNodes,
			"dead_nodes":  snap.DeadNodes,
			"replicas":    snap.Replicas,
			"cache_len":   c.CacheLen(),
			"deaths":      snap.Deaths,
			"rejoins":     snap.Rejoins,
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	}))
	a.Handle("/cluster/add", op(func(string) (string, error) {
		id, err := c.AddNode()
		if err != nil {
			return "", err
		}
		return "added " + id, nil
	}))
	a.Handle("/cluster/remove", op(func(node string) (string, error) {
		if err := needNode(node); err != nil {
			return "", err
		}
		return "removed " + node, c.RemoveNode(node)
	}))
	a.Handle("/cluster/kill", op(func(node string) (string, error) {
		if err := needNode(node); err != nil {
			return "", err
		}
		c.KillNode(node)
		return "killed " + node, nil
	}))
	a.Handle("/cluster/revive", op(func(node string) (string, error) {
		if err := needNode(node); err != nil {
			return "", err
		}
		c.ReviveNode(node)
		return "revived " + node, nil
	}))
}
