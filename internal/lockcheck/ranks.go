package lockcheck

// Latch ranks, low acquired first among the tier latches (RankD < RankN <
// RankS). RankMu is a strict leaf; RankFg admits only RankMu under it; the
// WAL ranks form their own two-level order (flushMu → shard mu); RankBMShard
// is a strict leaf. This file carries no build tag: the checked build, the
// no-op stub and the static latchorder analyzer (internal/vet) all read the
// ranks and their names from here.
const (
	RankD        = 1
	RankN        = 2
	RankS        = 3
	RankMu       = 4
	RankFg       = 5
	RankWALShard = 6
	RankWALFlush = 7
	RankBMShard  = 8
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
	case RankBMShard:
		return "pool.shard"
	}
	return "rank?"
}
