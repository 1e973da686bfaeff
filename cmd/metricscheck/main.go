// Command metricscheck is the CI gate for the /metrics endpoints: it
// fetches a Prometheus text exposition body from a URL (or reads stdin when
// the URL is "-"), fails on any malformed line, and fails unless every
// required metric family is present.
//
// The required list is not hand-kept. With -scope, metricscheck derives it
// from the source tree using the same literal-registration extraction the
// metricnames analyzer in internal/analysis enforces, so the gate tracks
// the code automatically: registering a new mpdp_* family in a scoped
// directory makes it required here with no CI edit, and deleting one from
// the code shrinks the list instead of failing on a stale name.
//
// Usage:
//
//	metricscheck -scope serve http://127.0.0.1:8080/metrics
//	metricscheck -scope cluster http://127.0.0.1:8095/metrics
//	curl -s localhost:8080/metrics | metricscheck - mpdp_inflight
//
// Scopes map to the directories that register families on that endpoint:
// "serve" covers internal/service; "cluster" covers internal/cluster, which
// registers the mpdp_cluster_* and mpdp_transport_* families, plus
// internal/service, whose writer the cluster calls to emit the rolled-up
// node families (the latency histograms included). Positional family names after the URL
// are required in addition to any derived list. -source overrides module
// root discovery (the default walks up from the working directory to
// go.mod, so `go run ./cmd/metricscheck` works from a checkout).
//
// Exit status 0 means the body parsed cleanly and all required families
// were found; anything else prints the first problem and exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// scopeDirs maps each -scope value to the directories (relative to the
// module root) whose literal registrations feed that endpoint's exposition.
var scopeDirs = map[string][]string{
	"serve":   {"internal/service"},
	"cluster": {"internal/cluster", "internal/service"},
}

func main() {
	scope := flag.String("scope", "", "derive required families from source: serve|cluster")
	source := flag.String("source", "", "module root to extract from (default: discovered via go.mod)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-scope serve|cluster] [-source dir] <url|-> [required_family ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	required := append([]string(nil), flag.Args()[1:]...)
	if *scope != "" {
		derived, err := deriveFamilies(*scope, *source)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metricscheck:", err)
			os.Exit(1)
		}
		required = append(required, derived...)
	}

	body, err := fetch(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	families, err := obs.ValidateExposition(body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck: malformed exposition:", err)
		os.Exit(1)
	}
	missing := 0
	for _, want := range required {
		if !families[want] {
			fmt.Fprintf(os.Stderr, "metricscheck: missing family %s\n", want)
			missing++
		}
	}
	if missing > 0 {
		os.Exit(1)
	}
	fmt.Printf("metricscheck: ok (%d families, %d required)\n", len(families), len(required))
}

// deriveFamilies extracts the scope's registered family names from source.
func deriveFamilies(scope, source string) ([]string, error) {
	dirs, ok := scopeDirs[scope]
	if !ok {
		return nil, fmt.Errorf("unknown scope %q (want serve or cluster)", scope)
	}
	root := source
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root, _, err = analysis.ModuleRoot(wd)
		if err != nil {
			return nil, err
		}
	}
	fams, err := analysis.ExtractMetricFamilies(root, dirs...)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names, nil
}

func fetch(src string) (string, error) {
	if src == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(src)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", src, resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return string(b), err
}
