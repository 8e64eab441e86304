package main

import (
	"runtime"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
)

// coreCounters flattens the buffer manager's public counter snapshot.
func coreCounters(s core.Stats) counters {
	return counters{
		"hit_dram":       float64(s.HitDRAM + s.HitMini),
		"hit_nvm":        float64(s.HitNVM),
		"miss":           float64(s.MissSSD),
		"evict_dram":     float64(s.EvictDRAM + s.EvictMini),
		"evict_nvm":      float64(s.EvictNVM),
		"fg_evicts":      float64(s.ForegroundEvicts),
		"cleaned":        float64(s.CleanerCleanedDRAM + s.CleanerCleanedNVM),
		"cleaner_stalls": float64(s.CleanerStalls),
		"free_steals":    float64(s.DRAMFreeSteals + s.NVMFreeSteals),
		"nvm_to_dram":    float64(s.NVMToDRAM),
		"ssd_to_nvm":     float64(s.SSDToNVM),
		"ssd_to_dram":    float64(s.SSDToDRAM),
		"dram_to_nvm":    float64(s.DRAMToNVM),
		"dram_to_ssd":    float64(s.DRAMToSSD),
		"nvm_to_ssd":     float64(s.NVMToSSD),
	}
}

// addDevice adds one device model's traffic under prefix; several devices
// of a tier (buffer arena and log buffer on NVM) accumulate.
func addDevice(c counters, prefix string, s device.Stats) {
	c[prefix+"_read_ops"] += float64(s.ReadOps)
	c[prefix+"_write_ops"] += float64(s.WriteOps)
	c[prefix+"_bytes_read"] += float64(s.BytesRead)
	c[prefix+"_bytes_written"] += float64(s.BytesWritten)
}

// addMemStats adds the Go allocator's cumulative counts. It stops the
// world, so it is read at pass boundaries only.
func addMemStats(c counters) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = float64(ms.Mallocs)
	c["alloc_bytes"] = float64(ms.TotalAlloc)
}

// layerCounters turns the counter deltas of a pass of ops operations into
// the count-based per-layer metrics. Keys a workload's stack cannot report
// are absent from d and read as 0.
func layerCounters(m *metricSet, d counters, ops float64) {
	if ops <= 0 {
		return
	}
	perOp := func(name, key string) { m.set(name, d[key]/ops) }
	perK := func(name, key string) { m.set(name, 1000*d[key]/ops) }

	if f := d["hit_dram"] + d["hit_nvm"] + d["miss"]; f > 0 {
		m.set("core.hit_dram_frac", d["hit_dram"]/f)
		m.set("core.hit_nvm_frac", d["hit_nvm"]/f)
		m.set("core.miss_frac", d["miss"]/f)
	}
	perK("core.evict_dram_per_kop", "evict_dram")
	perK("core.evict_nvm_per_kop", "evict_nvm")
	perK("core.fg_evicts_per_kop", "fg_evicts")
	perK("core.cleaner_cleaned_per_kop", "cleaned")
	if e := d["evict_dram"] + d["evict_nvm"]; e > 0 {
		m.set("core.fg_evict_frac", d["fg_evicts"]/e)
	}
	m.set("core.cleaner_stalls", d["cleaner_stalls"])
	perK("core.free_steals_per_kop", "free_steals")
	perK("core.mig_nvm_to_dram_per_kop", "nvm_to_dram")
	perK("core.ssd_to_nvm_per_kop", "ssd_to_nvm")
	perK("core.ssd_to_dram_per_kop", "ssd_to_dram")
	perK("core.dram_to_nvm_per_kop", "dram_to_nvm")
	perK("core.dram_to_ssd_per_kop", "dram_to_ssd")
	perK("core.nvm_to_ssd_per_kop", "nvm_to_ssd")

	perOp("pmem.write_bytes_per_op", "nvm_bytes_written")
	perOp("pmem.read_bytes_per_op", "nvm_bytes_read")
	perK("ssd.read_pages_per_kop", "ssd_read_ops")
	perK("ssd.write_pages_per_kop", "ssd_write_ops")
	perOp("ssd.write_bytes_per_op", "ssd_bytes_written")
	m.set("device.dram_charges_per_op", (d["dram_read_ops"]+d["dram_write_ops"])/ops)

	perOp("wal.appends_per_op", "wal_appends")
	perK("wal.flushes_per_kop", "wal_flushes")
	perOp("wal.log_bytes_per_op", "wal_log_bytes")
}

// contentionCounters are the count-based metrics that only move when
// workers contend, so they come from the all-workers pass.
func contentionCounters(m *metricSet, d counters, ops float64) {
	if ops <= 0 {
		return
	}
	perK := func(name, key string) { m.set(name, 1000*d[key]/ops) }
	perK("mvto.conflict_retries_per_kop", "retries")
	if t := d["commits"] + d["aborts"]; t > 0 {
		m.set("mvto.abort_frac", d["aborts"]/t)
	}
	perK("server.conflict_409_per_kreq", "conflict_409")
	perK("server.txn_retries_per_kreq", "txn_retries")
	perK("server.refused_per_kreq", "refused")
}
