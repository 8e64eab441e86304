package engine

import (
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// TestObsGaugesDegradedNVM: once the NVM tier has failed permanently, the
// engine's source reads it as Pressure does — no frames, none free — and
// raises nvm_degraded.
func TestObsGaugesDegradedNVM(t *testing.T) {
	m := Build(Spec{DRAMBytes: 2 * core.PageSize, NVMBytes: 8 * core.NVMFrameSlot, Policy: policy.SpitfireEager})
	db, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.BM().Close()
	gauges := func() map[string]int64 {
		out := map[string]int64{}
		for _, g := range db.ObsGauges() {
			out[g.Name] = g.Value
		}
		return out
	}
	if g := gauges(); g["nvm_frames"] != 8 || g["nvm_free_frames"] != 8 || g["nvm_degraded"] != 0 {
		t.Fatalf("fresh NVM tier reads frames %d, free %d, degraded %d; want 8, 8, 0",
			g["nvm_frames"], g["nvm_free_frames"], g["nvm_degraded"])
	}

	// Eager admission pushes the pages DRAM cannot hold into NVM; fetching
	// them back after the device fails collapses the hierarchy.
	bm, ctx := db.BM(), core.NewCtx(1)
	var pids []core.PageID
	for i := 0; i < 6; i++ {
		pid, h, err := bm.NewPage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
		pids = append(pids, pid)
	}
	inj := device.NewInjector(device.FaultConfig{Seed: 1})
	m.Data.Device().SetFaults(inj)
	inj.FailNow()
	for _, pid := range pids {
		if h, err := bm.FetchPage(ctx, pid, core.WriteIntent); err == nil {
			h.Release()
		}
	}
	if !bm.NVMDegraded() {
		t.Fatal("the manager did not degrade")
	}
	if g := gauges(); g["nvm_frames"] != 0 || g["nvm_free_frames"] != 0 || g["nvm_degraded"] != 1 {
		t.Fatalf("degraded NVM tier reads frames %d, free %d, degraded %d; want 0, 0, 1",
			g["nvm_frames"], g["nvm_free_frames"], g["nvm_degraded"])
	}
}
