package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/server"
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
		// The log since the last checkpoint, and the checkpoints that
		// bound it: how many, how many gave up, how long each held
		// requests back.
		"spitfire_wal_log_bytes",
		"spitfire_checkpoints_total",
		"spitfire_checkpoint_give_ups_total",
		`spitfire_checkpoint_pause_wall_ns{quantile="0.99"}`,
		"spitfire_checkpoint_pause_wall_ns_count",
		// Request latency summaries.
		`spitfire_req_get_ns{quantile="0.99"}`,
		"spitfire_req_put_ns_count",
		// Engine counters must still ride along on the same endpoint.
		"spitfire_hit_dram_total",
		"spitfire_wal_commits_total",
		"spitfire_cleaner_wakeups_total",
		// The engine's device traffic and pool occupancy: the server
		// exports the same engine source as the harness.
		"spitfire_nvm_bytes_read_total",
		"spitfire_nvm_bytes_written_total",
		"spitfire_ssd_bytes_read_total",
		"spitfire_ssd_bytes_written_total",
		"spitfire_dram_used_frames",
		"spitfire_dram_dirty_frames",
		"spitfire_nvm_used_frames",
		"spitfire_nvm_dirty_frames",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("server_metrics.txt missing %q", want)
		}
	}
}

// TestServerFixtureIsLive builds the served stack in process (the cleaner
// on, as spitfire-serve runs it) and requires its /metrics to expose exactly
// the fixture's metric families. A family that leaves or joins the endpoint
// then fails here until testdata/server_metrics.txt is scraped again.
func TestServerFixtureIsLive(t *testing.T) {
	o := obs.New(obs.Config{})
	db, err := engine.Build(engine.Spec{
		DRAMBytes: 1 << 20,
		NVMBytes:  2 << 20,
		Policy:    policy.SpitfireLazy,
		Cleaner:   true,
		Obs:       o,
	}).Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.BM().Close)
	kv, err := engine.OpenKV(db, 1, "kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{DB: db, KV: kv, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile("testdata/server_metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, want := families(string(live)), families(string(fixture))
	for _, f := range got {
		if !slices.Contains(want, f) {
			t.Errorf("/metrics exposes %s, which server_metrics.txt lacks", f)
		}
	}
	for _, f := range want {
		if !slices.Contains(got, f) {
			t.Errorf("server_metrics.txt has %s, which /metrics no longer exposes", f)
		}
	}
}

// families returns the metric family names an exposition declares, one per
// "# TYPE" line.
func families(payload string) []string {
	var names []string
	for _, line := range strings.Split(payload, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}
