package lockcheck

import "fmt"

// Latch ranks, low acquired first among the tier latches (RankD < RankN <
// RankS). Violation is the one statement of the order between them. This
// file carries no build tag: the checked build, the no-op stub and the
// static latchorder analyzer (internal/vet) all read the ranks, their names
// and the rules from here.
const (
	RankD        = 1
	RankN        = 2
	RankS        = 3
	RankMu       = 4
	RankFg       = 5
	RankWALShard = 6
	RankWALFlush = 7
	RankFreeList = 8
	RankTxnGate  = 9
)

// RankName names a rank in diagnostics.
func RankName(r int) string {
	switch r {
	case RankD:
		return "latchD"
	case RankN:
		return "latchN"
	case RankS:
		return "latchS"
	case RankMu:
		return "mu"
	case RankFg:
		return "fg.mu"
	case RankWALShard:
		return "wal.shard"
	case RankWALFlush:
		return "wal.flushMu"
	case RankFreeList:
		return "pool.freeMu"
	case RankTxnGate:
		return "server.txnGate"
	}
	return "rank?"
}

// Held is one latch a holder holds: the object it protects and its rank.
// The runtime checker's objects are pointers; the static analyzer's are
// canonical expression strings.
type Held struct {
	Obj  any
	Rank int
}

// Violation reports whether acquiring (obj, rank) while holding held, in
// acquisition order, breaks the latch discipline. blocking is false for a
// successful TryLock. It returns the index in held of the latch the
// acquisition conflicts with and a message, or -1 and "" when it is legal.
// The rules:
//
//  1. Tier latches of one descriptor in rank order RankD < RankN < RankS;
//     skipping ranks is fine, acquiring a rank ≤ one already held on the
//     same descriptor is not.
//  2. RankMu is a leaf: nothing may be acquired while any mu is held. (mu
//     orders the writers of a descriptor's frame slots; readers load the
//     slots atomically and take no latch.)
//  3. Blocking acquisition of a tier latch is illegal while a tier latch of
//     a different descriptor is held; TryLock of a second descriptor is the
//     sanctioned escape hatch.
//  4. RankFg (a frame group's fg.mu) is a strict leaf: it may be taken
//     under tier latches, but nothing may be acquired while it is held.
//  5. RankWALShard (a WAL shard's append mutex) is a leaf on the append
//     path. The one exception is the combining flusher, which drains every
//     shard while holding RankWALFlush: shard→shard acquisitions are legal
//     only under flushMu.
//  6. Under RankWALFlush only RankWALShard may be acquired.
//  7. RankFreeList (a buffer pool's free-list mutex) is a strict leaf: it
//     may be taken under tier latches (allocation runs under latchD or
//     latchN) but nothing may be acquired while it is held.
//  8. RankTxnGate (the server's transaction gate, an RWMutex a transaction
//     holds shared and a checkpoint exclusive) is a root: it may be taken
//     only while nothing is held — in particular not a second time, since
//     a nested read lock queues behind a waiting checkpoint that waits for
//     the outer one.
func Violation(held []Held, obj any, rank int, blocking bool) (conflict int, msg string) {
	// Messages are formatted only on the paths that return one: every
	// legal acquisition of the checked build passes through here.
	if rank == RankTxnGate && len(held) > 0 {
		i := len(held) - 1
		return i, fmt.Sprintf("acquiring %s while %s is held — the transaction gate is a root, taken before anything else",
			latchString(obj, rank), latchString(held[i].Obj, held[i].Rank))
	}
	flushHeld := false
	for _, h := range held {
		flushHeld = flushHeld || h.Rank == RankWALFlush
	}
	for i, h := range held {
		var why string
		switch {
		case h.Rank == RankMu:
			why = "mu is a leaf lock, acquire nothing under it"
		case h.Rank == RankFg:
			why = "a frame-group lock is a strict leaf"
		case h.Rank == RankFreeList:
			why = "a pool's free-list mutex is a strict leaf"
		case h.Rank == RankWALShard && !(rank == RankWALShard && flushHeld):
			why = "a shard mutex is a leaf on the append path (shard→shard only under flushMu)"
		case h.Rank == RankWALFlush && rank != RankWALShard:
			why = "only shard mutexes may be taken under flushMu"
		case h.Obj == obj && h.Rank <= RankS && h.Rank >= rank:
			return i, fmt.Sprintf("acquiring %s while holding %s of the same descriptor — tier order is latchD → latchN → latchS",
				latchString(obj, rank), RankName(h.Rank))
		case h.Obj != obj && blocking && rank <= RankS && h.Rank <= RankS:
			return i, fmt.Sprintf("blocking Lock of %s while holding %s of another descriptor — second descriptors only via TryLock",
				latchString(obj, rank), latchString(h.Obj, h.Rank))
		}
		if why != "" {
			return i, fmt.Sprintf("acquiring %s while %s is held — %s", latchString(obj, rank), latchString(h.Obj, h.Rank), why)
		}
	}
	return -1, ""
}

// latchString renders a latch as rank(object): the analyzer's expression
// as written, the runtime checker's pointer in hex.
func latchString(obj any, rank int) string {
	if s, ok := obj.(string); ok {
		return RankName(rank) + "(" + s + ")"
	}
	return fmt.Sprintf("%s(%p)", RankName(rank), obj)
}
