package device

import (
	"sync"
	"testing"
	"unsafe"

	"github.com/spitfire-db/spitfire/internal/vclock"
)

func TestReadChargesLatencyAndBandwidth(t *testing.T) {
	d := New(Params{Kind: SSD, ReadLatency: 10_000, WriteLatency: 10_000,
		ReadBandwidth: 2, WriteBandwidth: 2, Granularity: 16384})
	c := vclock.New()
	d.Read(c, 16384)
	// 16384 bytes at 2 B/ns = 8192 ns busy + 10000 ns latency.
	if want := int64(8192 + 10_000); c.Now() != want {
		t.Fatalf("clock after read = %d, want %d", c.Now(), want)
	}
}

func TestGranularityRounding(t *testing.T) {
	d := New(Params{Kind: NVM, ReadLatency: 0, WriteLatency: 0,
		ReadBandwidth: 1, WriteBandwidth: 1, Granularity: 256})
	c := vclock.New()
	if media := d.Read(c, 1); media != 256 {
		t.Fatalf("1-byte read transferred %d media bytes, want 256", media)
	}
	if media := d.Write(c, 257); media != 512 {
		t.Fatalf("257-byte write transferred %d media bytes, want 512", media)
	}
	st := d.Stats()
	if st.BytesRead != 256 || st.BytesWritten != 512 {
		t.Fatalf("stats = %+v, want 256 read / 512 written", st)
	}
}

func TestSharedBandwidthQueues(t *testing.T) {
	// Two workers issuing back-to-back transfers must queue behind each
	// other: the second completes no earlier than 2*busy.
	d := New(Params{Kind: SSD, ReadLatency: 0, WriteLatency: 0,
		ReadBandwidth: 1, WriteBandwidth: 1, Granularity: 1})
	c1, c2 := vclock.New(), vclock.New()
	d.Read(c1, 1000)
	d.Read(c2, 1000)
	if c1.Now() != 1000 {
		t.Fatalf("first worker at %d, want 1000", c1.Now())
	}
	if c2.Now() != 2000 {
		t.Fatalf("second worker at %d, want 2000 (queued)", c2.Now())
	}
}

func TestSaturationUnderConcurrency(t *testing.T) {
	// N workers each transfer B bytes; with bandwidth bw the max virtual
	// completion time must be at least N*B/bw (the device serializes), and
	// not wildly more.
	const workers, transfers, bytes = 8, 50, 4096
	d := New(Params{Kind: SSD, ReadLatency: 0, WriteLatency: 0,
		ReadBandwidth: 1, WriteBandwidth: 1, Granularity: 1})
	var wg sync.WaitGroup
	times := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vclock.New()
			for i := 0; i < transfers; i++ {
				d.Read(c, bytes)
			}
			times[w] = c.Now()
		}(w)
	}
	wg.Wait()
	var max int64
	for _, ts := range times {
		if ts > max {
			max = ts
		}
	}
	want := int64(workers * transfers * bytes) // total busy time at 1 B/ns
	if max < want {
		t.Fatalf("max completion %d < serialized busy time %d", max, want)
	}
	if max > want*2 {
		t.Fatalf("max completion %d implausibly larger than busy time %d", max, want)
	}
}

func TestResetStats(t *testing.T) {
	d := New(DRAMParams)
	c := vclock.New()
	d.Write(c, 100)
	d.ResetStats()
	if st := d.Stats(); st.WriteOps != 0 || st.BytesWritten != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{DRAM: "DRAM", NVM: "NVM", SSD: "SSD"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestTable1Defaults(t *testing.T) {
	// Sanity-check the calibration constants against Table 1 of the paper.
	if DRAMParams.ReadLatency != 80 || NVMParams.ReadLatency != 320 {
		t.Fatal("DRAM/NVM read latencies diverge from Table 1")
	}
	if SSDParams.Granularity != 16384 || NVMParams.Granularity != 256 || DRAMParams.Granularity != 64 {
		t.Fatal("media access granularities diverge from Table 1")
	}
	if !(DRAMParams.PricePerGB > NVMParams.PricePerGB && NVMParams.PricePerGB > SSDParams.PricePerGB) {
		t.Fatal("price ordering DRAM > NVM > SSD violated")
	}
}

// TestDeviceLayout pins the layout the charge path depends on. A Device is
// only 8-byte aligned, so "a line of its own" is stated as distances: the
// horizon — the one word every worker CASes — has no other field within 56
// bytes of it on either side, and one traffic stripe's counters end at least
// 56 bytes before the next stripe's begin.
func TestDeviceLayout(t *testing.T) {
	var d Device
	h := unsafe.Offsetof(d.horizon)
	if end := unsafe.Offsetof(d.hWrite) + unsafe.Sizeof(d.hWrite); h-end < 56 {
		t.Errorf("set-up fields end at offset %d, %d bytes before the horizon: want >= 56", end, h-end)
	}
	if tr := unsafe.Offsetof(d.traffic); tr-(h+8) < 56 {
		t.Errorf("traffic stripes start at offset %d, %d bytes after the horizon: want >= 56", tr, tr-(h+8))
	}
	var s trafficStripe
	counters := unsafe.Offsetof(s.bytesWritten) + unsafe.Sizeof(s.bytesWritten)
	if sz := unsafe.Sizeof(s); sz%64 != 0 || sz-counters < 56 {
		t.Errorf("traffic stripe is %d bytes with %d of counters: want whole cache lines and >= 56 bytes of padding", sz, counters)
	}
}

// TestStatsSumStripes charges one device from clocks that land on every
// stripe and checks Stats sees all of it and ResetStats clears all of it.
func TestStatsSumStripes(t *testing.T) {
	d := New(NVMParams)
	for i := 0; i < 2*trafficStripes; i++ {
		c := vclock.New()
		d.Read(c, 1)
		d.Write(c, 257)
	}
	want := Stats{ReadOps: 2 * trafficStripes, WriteOps: 2 * trafficStripes,
		BytesRead: 2 * trafficStripes * 256, BytesWritten: 2 * trafficStripes * 512}
	if got := d.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	d.ResetStats()
	if got := d.Stats(); got != (Stats{}) {
		t.Fatalf("Stats() after ResetStats = %+v", got)
	}
}
