package lockcheck

import (
	"fmt"
	"strings"
	"testing"
)

// violationTable states the discipline cell by cell. A row holds one rank
// (0: nothing), after the WAL's flushMu when flush is set. Its four blocks
// list the nine ranks D N S Mu Fg Sh Fl FL Gt acquired next: on the same
// object blocking, on the same object by TryLock, on another object
// blocking, on another object by TryLock. A cell is the number of the rule
// that forbids the acquisition, '.' where it is legal.
var violationTable = []struct {
	flush bool
	held  int
	cells string
}{
	{false, 0, "......... ......... ......... ........."},
	{false, RankD, "1.......8 1.......8 333.....8 ........8"},
	{false, RankN, "11......8 11......8 333.....8 ........8"},
	{false, RankS, "111.....8 111.....8 333.....8 ........8"},
	{false, RankMu, "222222228 222222228 222222228 222222228"},
	{false, RankFg, "444444448 444444448 444444448 444444448"},
	{false, RankWALShard, "555555558 555555558 555555558 555555558"},
	{false, RankWALFlush, "66666.668 66666.668 66666.668 66666.668"},
	{false, RankFreeList, "777777778 777777778 777777778 777777778"},
	{false, RankTxnGate, "........8 ........8 ........8 ........8"},

	{true, 0, "66666.668 66666.668 66666.668 66666.668"},
	{true, RankD, "66666.668 66666.668 66666.668 66666.668"},
	{true, RankN, "66666.668 66666.668 66666.668 66666.668"},
	{true, RankS, "66666.668 66666.668 66666.668 66666.668"},
	{true, RankMu, "666662668 666662668 666662668 666662668"},
	{true, RankFg, "666664668 666664668 666664668 666664668"},
	{true, RankWALShard, "66666.668 66666.668 66666.668 66666.668"},
	{true, RankWALFlush, "66666.668 66666.668 66666.668 66666.668"},
	{true, RankFreeList, "666667668 666667668 666667668 666667668"},
	{true, RankTxnGate, "66666.668 66666.668 66666.668 66666.668"},
}

// rulePhrase is the part of each rule's message that names it.
var rulePhrase = map[byte]string{
	'1': "tier order is latchD → latchN → latchS",
	'2': "mu is a leaf lock",
	'3': "second descriptors only via TryLock",
	'4': "a frame-group lock is a strict leaf",
	'5': "a shard mutex is a leaf on the append path",
	'6': "only shard mutexes may be taken under flushMu",
	'7': "a pool's free-list mutex is a strict leaf",
	'8': "the transaction gate is a root",
}

// TestViolationTable checks Violation against every cell of the table: each
// rule forbids exactly its cells, and each message names the rule and the
// held latch it conflicts with.
func TestViolationTable(t *testing.T) {
	for _, row := range violationTable {
		var held []Held
		if row.flush {
			held = append(held, Held{Obj: "f", Rank: RankWALFlush})
		}
		if row.held != 0 {
			held = append(held, Held{Obj: "x", Rank: row.held})
		}
		blocks := strings.Fields(row.cells)
		if len(blocks) != 4 {
			t.Fatalf("flush=%v held=%s: %d blocks, want 4", row.flush, RankName(row.held), len(blocks))
		}
		for b, block := range blocks {
			obj, blocking := "x", b%2 == 0
			if b >= 2 {
				obj = "y"
			}
			if len(block) != RankTxnGate { // the ranks run from 1 to the gate's
				t.Fatalf("flush=%v held=%s: block %q has %d cells, want one per rank", row.flush, RankName(row.held), block, len(block))
			}
			for c := 0; c < len(block); c++ {
				rank, want := c+1, block[c]
				i, msg := Violation(held, obj, rank, blocking)
				cell := func() string {
					return fmt.Sprintf("%s(%s) blocking=%v under %v", RankName(rank), obj, blocking, held)
				}
				if want == '.' {
					if msg != "" {
						t.Errorf("%s: forbidden (%s), want legal", cell(), msg)
					}
					continue
				}
				switch {
				case msg == "":
					t.Errorf("%s: legal, want rule %c", cell(), want)
				case !strings.Contains(msg, rulePhrase[want]):
					t.Errorf("%s: %q, want rule %c (%q)", cell(), msg, want, rulePhrase[want])
				case i < 0 || i >= len(held) || !strings.Contains(msg, RankName(held[i].Rank)):
					t.Errorf("%s: conflict index %d does not name a held latch in %q", cell(), i, msg)
				}
			}
		}
	}
}
