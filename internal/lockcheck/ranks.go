package lockcheck

// Latch ranks, low acquired first among the tier latches (RankD < RankN <
// RankS). RankMu, RankFg and RankFreeList are strict leaves; the WAL ranks
// form their own two-level order (flushMu → shard mu); RankTxnGate is a
// root, taken before everything else. This file carries no build tag: the
// checked build, the no-op stub and the static latchorder analyzer
// (internal/vet) all read the ranks and their names from here.
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
