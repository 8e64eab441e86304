package engine

import (
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/memmode"
	"github.com/spitfire-db/spitfire/internal/obs"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// Spec describes one machine of the paper's evaluation (§5.2): DRAM and NVM
// buffers over an SSD, with the log buffer on the NVM DIMMs that hold the
// data. Build is the one way to assemble it.
type Spec struct {
	// DRAMBytes and NVMBytes size the two buffers. Either may be zero,
	// which disables that tier; at least one must be positive.
	DRAMBytes, NVMBytes int64
	Policy              policy.Policy

	// HyMem optimizations (core.Config).
	FineGrained bool
	LoadingUnit int
	MiniPages   bool

	// MemoryModeDRAM > 0 prices the DRAM buffer as Optane memory mode: a
	// hardware DRAM cache of this size in front of NVM (§6.2). The buffer
	// capacity stays DRAMBytes.
	MemoryModeDRAM int64

	// WALBuffer sizes the log buffer (default 1 MiB) and WALShards splits it
	// into worker-affine append regions (wal.Options.Shards).
	WALBuffer int64
	WALShards int

	// LogDIMM puts the log buffer on an NVM DIMM of its own instead of the
	// data arena's, so a failing data DIMM leaves logging intact.
	LogDIMM bool

	// TrackCrashes makes both arenas keep what they persisted, so Crash can
	// roll them back.
	TrackCrashes bool

	// Obs attaches the observability layer to the buffer manager, the WAL
	// and the data devices. Nil turns it off.
	Obs *obs.Obs
}

const (
	defaultWALBuffer = 1 << 20
	// dramLogFlush is the group-commit batch of a log buffer without NVM.
	dramLogFlush = 64 << 10
)

// Machine is the state of a Spec that survives a crash: the devices, the
// NVM data and log arenas, the page store and the log file. Open and
// Recover assemble an engine over it.
type Machine struct {
	spec Spec

	// Data is the NVM buffer's arena (nil without an NVM tier). Log is the
	// log buffer's arena: on Data's device, on a device of its own with
	// Spec.LogDIMM, or priced as DRAM when the hierarchy has no NVM (such
	// a system batches log records in DRAM and group-commits them to SSD,
	// §3.2).
	Data, Log *pmem.PMem
	// Pages is the page store and LogFile the SSD log. They share one SSD
	// device.
	Pages   *ssd.MemStore
	LogFile *wal.MemLog

	mem *memmode.Device     // prices the DRAM buffer in memory mode
	bm  *core.BufferManager // the manager Open or Recover built last
}

// Build creates a Spec's devices and media. It issues no device traffic,
// so a caller can attach fault injectors before Open.
func Build(spec Spec) *Machine {
	if spec.WALBuffer == 0 {
		spec.WALBuffer = defaultWALBuffer
	}
	m := &Machine{spec: spec}
	ssdDev := device.New(device.SSDParams)
	m.Pages = ssd.NewMem(ssdDev)
	m.LogFile = wal.NewMemLog(ssdDev)

	var nvmDev *device.Device
	if spec.NVMBytes > 0 {
		nvmDev = device.New(device.NVMParams)
		m.Data = pmem.New(pmem.Options{Size: spec.NVMBytes, Device: nvmDev, TrackCrashes: spec.TrackCrashes})
	}
	// With NVM, a persisted log append is the commit (§5.2).
	logDev := nvmDev
	switch {
	case spec.NVMBytes == 0:
		logDev = device.New(device.DRAMParams)
	case spec.LogDIMM:
		logDev = device.New(device.NVMParams)
	}
	m.Log = pmem.New(pmem.Options{Size: spec.WALBuffer, Device: logDev, TrackCrashes: spec.TrackCrashes})
	if o := spec.Obs; o != nil {
		ssdDev.SetLatencyHistograms(o.Hist(obs.HDevSSDRead), o.Hist(obs.HDevSSDWrite))
		if nvmDev != nil {
			nvmDev.SetLatencyHistograms(o.Hist(obs.HDevNVMRead), o.Hist(obs.HDevNVMWrite))
		}
	}
	if spec.MemoryModeDRAM > 0 {
		m.mem = memmode.New(memmode.Options{DRAMBytes: spec.MemoryModeDRAM})
	}
	return m
}

// Open assembles a fresh engine on the machine: buffer manager, WAL, DB. It
// starts no cleaner goroutine: a live process calls BM().StartCleaners, and
// the experiment harness steps the cleaners on its own goroutine.
func (m *Machine) Open() (*DB, error) {
	bm, err := core.New(m.bufferConfig())
	if err != nil {
		return nil, err
	}
	w, err := wal.New(m.walOptions())
	if err != nil {
		bm.Close()
		return nil, err
	}
	m.bm = bm
	return Open(Options{BM: bm, WAL: w})
}

// Recover assembles an engine over what survived a crash: the buffer
// manager rescans the NVM arena (core.Recover), then Recover replays the log
// and rebuilds the tables in schema. Like Open, it starts no cleaner
// goroutine: a live process calls BM().StartCleaners, after auditing the
// quiescent manager.
func (m *Machine) Recover(ctx *core.Ctx, schema []TableDef, prepare func(*DB) error) (*DB, *wal.RecoveredLog, error) {
	bm, err := core.Recover(m.bufferConfig())
	if err != nil {
		return nil, nil, err
	}
	m.bm = bm
	db, rl, err := Recover(ctx, RecoverOptions{BM: bm, WAL: m.walOptions(), Schema: schema, Prepare: prepare})
	if err != nil {
		bm.Close()
		return nil, nil, err
	}
	return db, rl, nil
}

// Crash is a power failure: the cleaners of the engine last opened or
// recovered stop, and both arenas lose every store they did not persist.
// The Spec must set TrackCrashes.
func (m *Machine) Crash() {
	m.bm.Close()
	if m.Data != nil {
		m.Data.Crash()
	}
	m.Log.Crash()
}

func (m *Machine) bufferConfig() core.Config {
	cfg := core.Config{
		DRAMBytes:   m.spec.DRAMBytes,
		NVMBytes:    m.spec.NVMBytes,
		Policy:      m.spec.Policy,
		FineGrained: m.spec.FineGrained,
		LoadingUnit: m.spec.LoadingUnit,
		MiniPages:   m.spec.MiniPages,
		SSD:         m.Pages,
		PMem:        m.Data,
		Obs:         m.spec.Obs,
	}
	if m.mem != nil {
		cfg.DRAMCharger = memCharger{m.mem}
	}
	return cfg
}

func (m *Machine) walOptions() wal.Options {
	o := wal.Options{Buffer: m.Log, Store: m.LogFile, Shards: m.spec.WALShards, Obs: m.spec.Obs}
	if m.spec.NVMBytes == 0 {
		o.FlushThreshold = dramLogFlush
	}
	return o
}

// memCharger prices DRAM-buffer traffic through the memory-mode model.
type memCharger struct{ d *memmode.Device }

func (a memCharger) ChargeRead(c *vclock.Clock, off int64, n int)  { a.d.Read(c, off, n) }
func (a memCharger) ChargeWrite(c *vclock.Clock, off int64, n int) { a.d.Write(c, off, n) }
