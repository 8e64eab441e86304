package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/obs"
)

// TestFixturesLintClean runs the linter over every checked-in exposition
// fixture. The fixtures are real scrapes (testdata/server_metrics.txt is a
// live spitfire-serve /metrics), so a lint regression in either the obs
// exposition writer or the validator shows up here without a server.
func TestFixturesLintClean(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	for _, path := range paths {
		payload, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidatePrometheus(string(payload)); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestServerFixtureFamilies pins the metric families the serve front-end
// exposes, so a rename in internal/server's Source breaks CI here instead of
// silently breaking dashboards.
func TestServerFixtureFamilies(t *testing.T) {
	payload, err := os.ReadFile("testdata/server_metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	body := string(payload)
	for _, want := range []string{
		// Admission counters.
		"spitfire_req_accepted_total",
		"spitfire_req_completed_total",
		"spitfire_req_rejected_queue_full_total",
		"spitfire_req_shed_total",
		"spitfire_req_queue_expired_total",
		"spitfire_req_rejected_draining_total",
		"spitfire_req_rejected_read_only_total",
		"spitfire_txn_retries_total",
		"spitfire_degraded_trips_total",
		// Admission gauges.
		"spitfire_inflight",
		"spitfire_queued",
		"spitfire_active_clients",
		"spitfire_draining",
		"spitfire_read_only",
		"spitfire_shedding",
		"spitfire_min_free_millifrac",
		"spitfire_nvm_degraded",
		// Version-store size and the WAL posture.
		"spitfire_mvto_versions_retained",
		"spitfire_wal_shards",
		// Request latency summaries.
		`spitfire_req_get_ns{quantile="0.99"}`,
		"spitfire_req_put_ns_count",
		// Engine counters must still ride along on the same endpoint.
		"spitfire_hit_dram_total",
		"spitfire_wal_commits_total",
		"spitfire_cleaner_wakeups_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("server_metrics.txt missing %q", want)
		}
	}
}
