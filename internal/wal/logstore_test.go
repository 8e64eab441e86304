package wal

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/testutil"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// TestMemLogMatchesByteSliceModel drives a MemLog and a plain []byte with
// the same random Append (1 B to three chunks, some torn by the device's
// fault injector), Truncate, ReadAll and Len sequence and compares the two
// after every step.
func TestMemLogMatchesByteSliceModel(t *testing.T) {
	dev := device.New(device.SSDParams)
	dev.SetFaults(device.NewInjector(device.FaultConfig{Seed: 7, TornWriteProb: 0.2}))
	l := NewMemLog(dev)
	c := vclock.New()
	rng := rand.New(rand.NewSource(7))

	var model []byte
	torn := 0
	check := func(step int, op string) {
		t.Helper()
		if l.Len() != len(model) {
			t.Fatalf("step %d (%s): Len = %d, model holds %d", step, op, l.Len(), len(model))
		}
		got, err := l.ReadAll(c)
		if err != nil {
			t.Fatalf("step %d (%s): ReadAll: %v", step, op, err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("step %d (%s): ReadAll differs from the model (%d bytes against %d)", step, op, len(got), len(model))
		}
		if want := (len(model) + memLogChunk - 1) / memLogChunk; len(l.chunks) != want {
			t.Fatalf("step %d (%s): %d bytes sit in %d chunks, want %d", step, op, len(model), len(l.chunks), want)
		}
	}
	steps := 200
	if testutil.RaceEnabled() {
		steps = 50 // the detector shadows every byte moved, and this moves GiBs
	}
	for step := 0; step < steps; step++ {
		if rng.Intn(8) == 0 {
			// A truncate the device fails leaves the log as it was.
			if err := l.Truncate(c); err == nil {
				model = model[:0]
			}
			check(step, "truncate")
			continue
		}
		// Mostly flush-batch sizes; some that end exactly on a chunk
		// boundary, some up to a chunk, a few up to three.
		var n int
		switch rng.Intn(16) {
		case 0:
			n = 1 + rng.Intn(3*memLogChunk)
		case 1, 2:
			n = 1 + rng.Intn(memLogChunk)
		case 3, 4:
			n = memLogChunk - len(model)%memLogChunk
		default:
			n = 1 + rng.Intn(1<<20)
		}
		data := make([]byte, n)
		for i, x := 0, rng.Uint64(); i < n; i, x = i+8, x*6364136223846793005+1442695040888963407 {
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], x)
			copy(data[i:], word[:])
		}
		err := l.Append(c, data)
		if frac, isTorn := device.IsTorn(err); isTorn {
			torn++
			data = data[:int(frac*float64(n))]
		} else if err != nil {
			t.Fatalf("step %d: Append: %v", step, err)
		}
		model = append(model, data...)
		check(step, "append")
	}
	if torn == 0 {
		t.Fatal("the injector tore no write; the torn-prefix path went untested")
	}
}

// TestMemLogCopyBudget pins what the chunk list is for: a byte is copied
// into the log once and never again, a checkpoint interval refills the
// chunks the previous one emptied, and a log that shrinks gives memory back.
func TestMemLogCopyBudget(t *testing.T) {
	if testutil.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const total, batch = 64 << 20, 64 << 10
	l := NewMemLog(nil)
	c := vclock.New()
	data := make([]byte, batch)
	fill := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < total; n += batch {
			if err := l.Append(c, data); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	if got := fill(); got > total+2*memLogChunk {
		t.Fatalf("appending %d MiB allocated %d MiB; a log that never copies itself allocates its own size", total>>20, got>>20)
	}
	if err := l.Truncate(c); err != nil {
		t.Fatal(err)
	}
	if got := fill(); got >= batch {
		t.Fatalf("refilling a truncated log allocated %d bytes; the emptied chunks were not reused", got)
	}
	if err := l.Truncate(c); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 1<<20; n += batch {
		if err := l.Append(c, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(c); err != nil {
		t.Fatal(err)
	}
	if got := len(l.chunks) + len(l.spare); got > 2 {
		t.Fatalf("after a 1 MiB interval the log still holds %d chunks, want at most 2", got)
	}
}

// TestFileLogRoundTrip: appends reach the file, survive reopening it, and
// Truncate empties it.
func TestFileLogRoundTrip(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	c := vclock.New()
	l, err := NewFileLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"rec", "ord"} {
		if err := l.Append(c, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = NewFileLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if raw, err := l.ReadAll(c); err != nil || string(raw) != "record" {
		t.Fatalf("reopened file log holds %q (%v), want %q", raw, err, "record")
	}
	if err := l.Truncate(c); err != nil {
		t.Fatal(err)
	}
	if raw, err := l.ReadAll(c); err != nil || len(raw) != 0 {
		t.Fatalf("truncated file log holds %q (%v)", raw, err)
	}
	if c.Now() == 0 {
		t.Fatal("file log charged no device time")
	}
}
