// Black-box tests of the public API: everything a downstream user would do
// through the facade, exercised end to end.
package spitfire_test

import (
	"bytes"
	"errors"
	"testing"

	spitfire "github.com/spitfire-db/spitfire"
)

func TestPublicBufferManagerLifecycle(t *testing.T) {
	bm, err := spitfire.New(spitfire.Config{
		DRAMBytes: 4 * spitfire.PageSize,
		NVMBytes:  16 * spitfire.PageSize,
		Policy:    spitfire.SpitfireLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := spitfire.NewCtx(1)

	pid, h, err := bm.NewPage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("public API round trip")
	if err := h.WriteAt(ctx, 64, want); err != nil {
		t.Fatal(err)
	}
	h.Release()

	h, err = bm.FetchPage(ctx, pid, spitfire.ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := h.ReadAt(ctx, 64, got); err != nil {
		t.Fatal(err)
	}
	h.Release()
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
	if ctx.Clock.Now() == 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestPublicPolicyPresets(t *testing.T) {
	if spitfire.SpitfireLazy.Dr != 0.01 || spitfire.SpitfireLazy.Nr != 0.2 {
		t.Fatalf("SpitfireLazy = %v", spitfire.SpitfireLazy)
	}
	if spitfire.Hymem.NwMode != spitfire.NwAdmissionQueue {
		t.Fatal("Hymem preset lost its admission queue")
	}
	if err := (spitfire.Policy{Dr: 2}).Validate(); err == nil {
		t.Fatal("invalid policy validated")
	}
}

func TestPublicEngineTransaction(t *testing.T) {
	db, err := spitfire.Build(spitfire.Spec{
		DRAMBytes: 8 * spitfire.PageSize,
		NVMBytes:  16 * spitfire.PageSize,
		Policy:    spitfire.SpitfireLazy,
	}).Open()
	if err != nil {
		t.Fatal(err)
	}
	db.BM().StartCleaners()
	t.Cleanup(db.BM().Close)
	tb, err := db.CreateTable(1, "t", 128)
	if err != nil {
		t.Fatal(err)
	}
	ctx := spitfire.NewCtx(2)
	txn := db.Begin()
	payload := make([]byte, 128)
	copy(payload, "row one")
	if err := tb.Insert(ctx, txn, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	check := db.Begin()
	got := make([]byte, 128)
	if err := tb.Read(ctx, check, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("engine round trip failed")
	}
	if err := tb.Read(ctx, check, 99, got); !errors.Is(err, spitfire.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := check.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTunerRoundTrip(t *testing.T) {
	tn := spitfire.NewTuner(spitfire.TunerOptions{
		Initial: spitfire.SpitfireEager, Seed: 3, LockstepD: true, LockstepN: true,
	})
	p := tn.Propose()
	for i := 0; i < 30; i++ {
		// Prefer lazy D.
		p = tn.Observe(1e6 * (1.5 - p.Dr))
	}
	if best := tn.Best(); best.Dr > 0.5 {
		t.Fatalf("tuner best %v did not move toward lazy D", best)
	}
	// Wear-aware variant is callable through the facade.
	cost := spitfire.WearAwareCost{Lambda: 0.1}
	_ = tn.ObserveWear(cost, 1e6, 1e8)
}

// TestPublicDeviceAndPMem: a machine's NVM arena keeps what was persisted
// across Crash and loses the rest, and its device counts the traffic.
func TestPublicDeviceAndPMem(t *testing.T) {
	m := spitfire.Build(spitfire.Spec{
		NVMBytes:     16 * (spitfire.PageSize + 64),
		Policy:       spitfire.SpitfireLazy,
		TrackCrashes: true,
	})
	pm := m.Data
	ctx := spitfire.NewCtx(4)
	pm.Write(ctx.Clock, 0, []byte("persist me"))
	pm.Persist(ctx.Clock, 0, 10)
	pm.Write(ctx.Clock, 128, []byte("lose me"))
	m.Crash()
	got := make([]byte, 10)
	pm.Read(ctx.Clock, 0, got)
	if string(got) != "persist me" {
		t.Fatalf("persisted data lost: %q", got)
	}
	pm.Read(ctx.Clock, 128, got[:7])
	if string(got[:7]) == "lose me" {
		t.Fatal("an unpersisted store survived the crash")
	}
	if pm.Device().Stats().WriteOps == 0 {
		t.Fatal("device saw no traffic")
	}
}

func TestPublicCrashRecovery(t *testing.T) {
	m := spitfire.Build(spitfire.Spec{
		DRAMBytes:    4 * spitfire.PageSize,
		NVMBytes:     16 * (spitfire.PageSize + 64),
		Policy:       spitfire.SpitfireLazy,
		TrackCrashes: true,
	})
	db, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	db.BM().StartCleaners()
	tb, err := db.CreateTable(7, "t", 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := spitfire.NewCtx(5)
	if err := tb.Load(ctx, 4, func(i uint64, p []byte) uint64 { p[0] = 1; return i }); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	up := make([]byte, 64)
	up[0] = 9
	if err := tb.Update(ctx, txn, 2, up); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// The crash stops the background cleaners before it rolls the arenas
	// back: a crash kills the whole process, and a cleaner left running
	// would keep mutating the arena the recovered manager scans.
	m.Crash()
	rctx := spitfire.NewCtx(6)
	db2, rl, err := m.Recover(rctx, []spitfire.TableDef{{ID: 7, Name: "t", TupleSize: 64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db2.BM().Close)
	if len(rl.Committed) != 1 {
		t.Fatalf("recovered %d committed txns, want 1", len(rl.Committed))
	}
	check := db2.Begin()
	got := make([]byte, 64)
	if err := db2.Table(7).Read(rctx, check, 2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatalf("committed update lost across public-API recovery: %d", got[0])
	}
	if err := check.Commit(rctx); err != nil {
		t.Fatal(err)
	}
}
