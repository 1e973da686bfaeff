package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds: bench/ is a nested module that `./...` from the
// root does not reach, and it compiles against internal/* — the service
// configuration, the enumerators' inputs and counters, the cluster and the
// SDK. An API change here must not break it silently, so tier-1 type-checks
// it (and its tests) offline; `(cd bench && go test ./...)` in CI runs them.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the nested bench module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
