package tracereplay

import (
	"bytes"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/policy"
)

func TestParse(t *testing.T) {
	in := strings.NewReader(`
# a comment
R 5
W 17

r 0
w 99
`)
	ops, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{false, 5}, {true, 17}, {false, 0}, {true, 99}}
	if len(ops) != len(want) {
		t.Fatalf("parsed %d ops", len(ops))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"X 5", "R", "R five", "R 5 6"} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	if _, err := Parse(strings.NewReader("# only comments\n")); err == nil {
		t.Fatal("accepted empty trace")
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, 500, 64, 0.5, 30, 7); err != nil {
		t.Fatal(err)
	}
	ops, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 500 {
		t.Fatalf("generated %d ops", len(ops))
	}
	writes := 0
	for _, op := range ops {
		if op.Key >= 64 {
			t.Fatalf("key %d out of range", op.Key)
		}
		if op.Write {
			writes++
		}
	}
	if writes < 100 || writes > 200 {
		t.Fatalf("writes = %d of 500, want ~30%%", writes)
	}
}

func TestReplay(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, 800, 128, 0.3, 50, 3); err != nil {
		t.Fatal(err)
	}
	ops, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := core.New(core.Config{
		DRAMBytes: 4 * core.PageSize,
		NVMBytes:  16 * core.PageSize,
		Policy:    policy.SpitfireLazy,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(Config{BM: bm, Workers: 2}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 800 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Committed+res.Aborted != 800 {
		t.Fatalf("committed %d + aborted %d != 800", res.Committed, res.Aborted)
	}
	if res.Throughput <= 0 || res.ElapsedSec <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.LatencyP99Ns < res.LatencyP50Ns || res.LatencyP50Ns <= 0 {
		t.Fatalf("latency percentiles wrong: %+v", res)
	}
}

// Replay runs in virtual time only, so one trace replayed twice on fresh,
// equal hierarchies gives the same Result, counters included, at any worker
// count.
func TestReplayRepeats(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, 4000, 1500, 0.5, 30, 5); err != nil {
		t.Fatal(err)
	}
	ops, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		bm, err := core.New(core.Config{
			DRAMBytes: 8 * core.PageSize,
			NVMBytes:  48 * (core.PageSize + 64),
			Policy:    policy.SpitfireLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(Config{BM: bm, Workers: 4}, ops)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two replays of one trace differ:\n%+v\n%+v", a, b)
	}
}

func TestReplayRequiresBM(t *testing.T) {
	if _, err := Replay(Config{}, []Op{{false, 0}}); err == nil {
		t.Fatal("nil buffer manager accepted")
	}
}

// Replaying the same trace on two hierarchies must rank them sensibly: a
// bigger buffer wins on an uncachable trace.
func TestReplayComparesHierarchies(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, 3000, 2000, 0.3, 10, 9); err != nil {
		t.Fatal(err)
	}
	ops, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run := func(nvmPages int64) float64 {
		bm, err := core.New(core.Config{
			DRAMBytes: 4 * core.PageSize,
			NVMBytes:  nvmPages * (core.PageSize + 64),
			Policy:    policy.SpitfireLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(Config{BM: bm, Workers: 2}, ops)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	small, big := run(8), run(96)
	if big <= small {
		t.Fatalf("bigger NVM buffer not faster: %v vs %v", big, small)
	}
}
