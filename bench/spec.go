package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef declares one metric: its name, unit and which direction is good.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadNames are the four workloads, in the order a full set runs them.
var workloadNames = []string{"bm-hot", "bm-churn", "kv-txn", "serve-http"}

// endToEnd is what a caller of the system sees. Every workload reports every
// one of them, with tracing off.
//
// The bounds are what the shared 2-vCPU hosts this runs on can resolve, not
// what one would wish for: between ten runs on ten seeds the timing metrics
// spread (quartile to quartile) by 10-18 % of their median on the noisiest
// workload, and a bound applies to every workload. README.md has the table.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced run's budget, one group per module. A metric reads
// 0 on a workload where its layer does not run (see README.md for which).
var perLayer = []metricDef{
	{Name: "server.handler_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.transport_us_mean", Unit: "us", Better: "lower"},
	{Name: "server.transport_share", Unit: "ratio", Better: "lower"},
	{Name: "server.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "server.conflict_409_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "server.txn_retries_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "server.refused_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "server.rss_start_mb", Unit: "MiB", Better: "lower"},
	{Name: "server.rss_growth_mb", Unit: "MiB", Better: "lower"},
	{Name: "server.ready_at_end", Unit: "bool", Better: "higher"},
	{Name: "server.openloop_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.openloop_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.openloop_late_p99_us", Unit: "us", Better: "lower"},

	{Name: "engine.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.get_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.put_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.scan_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.begin_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "engine.commit_us_mean", Unit: "us", Better: "lower"},
	{Name: "engine.self_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "engine.fetches_per_op", Unit: "1/op", Better: "lower"},
	{Name: "engine.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "engine.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "engine.rate_1w", Unit: "ops/s", Better: "higher"},
	{Name: "engine.scaling_x", Unit: "ratio", Better: "higher"},
	{Name: "engine.checkpoint_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.checkpoint_retries", Unit: "count", Better: "lower"},

	{Name: "mvto.conflict_retries_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "mvto.abort_frac", Unit: "ratio", Better: "lower"},
	{Name: "mvto.read_txn_ns", Unit: "ns", Better: "lower"},

	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.scan16_ns", Unit: "ns", Better: "lower"},

	{Name: "wal.appends_per_op", Unit: "1/op", Better: "lower"},
	{Name: "wal.flushes_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "wal.log_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "wal.store_append_us_mean", Unit: "us", Better: "lower"},
	{Name: "wal.self_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},

	{Name: "core.fetch_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.fetch_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "core.fetch_hit_dram_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.fetch_hit_nvm_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.fetch_miss_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.access_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "core.release_ns_mean", Unit: "ns", Better: "lower"},
	{Name: "core.self_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "core.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "core.rate_1w", Unit: "ops/s", Better: "higher"},
	{Name: "core.scaling_x", Unit: "ratio", Better: "higher"},
	{Name: "core.hit_dram_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.hit_nvm_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.evict_dram_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.evict_nvm_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.fg_evicts_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.cleaner_cleaned_per_kop", Unit: "1/kop", Better: "higher"},
	{Name: "core.fg_evict_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.cleaner_stalls", Unit: "count", Better: "lower"},
	{Name: "core.free_steals_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.mig_nvm_to_dram_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.ssd_to_nvm_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.ssd_to_dram_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.dram_to_nvm_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.dram_to_ssd_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.nvm_to_ssd_per_kop", Unit: "1/kop", Better: "lower"},

	{Name: "cht.get_ns", Unit: "ns", Better: "lower"},
	{Name: "bitmapclock.victim_ns", Unit: "ns", Better: "lower"},

	{Name: "pmem.write_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "pmem.read_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "pmem.write_persist_256b_ns", Unit: "ns", Better: "lower"},

	{Name: "ssd.read_pages_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "ssd.write_pages_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "ssd.write_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "ssd.read_us_mean", Unit: "us", Better: "lower"},
	{Name: "ssd.write_us_mean", Unit: "us", Better: "lower"},

	{Name: "device.sim_ops_per_s", Unit: "ops/sim-s", Better: "higher"},
	{Name: "device.sim_ns_per_op", Unit: "sim-ns/op", Better: "lower"},
	{Name: "device.dram_charge_ns", Unit: "ns", Better: "lower"},
	{Name: "device.dram_charges_per_op", Unit: "1/op", Better: "lower"},

	{Name: "bench.attributed_frac", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.wall_s", Unit: "s", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specWL    `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type specWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// findRoot walks up from the working directory to the checkout root: the
// directory that holds BENCHMARK.json. The rig is started from the root by
// the benchmark command and from bench/ by go test.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = up
	}
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
