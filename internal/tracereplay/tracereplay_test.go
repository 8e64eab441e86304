package tracereplay

import (
	"bytes"
	"strings"
	"testing"
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
