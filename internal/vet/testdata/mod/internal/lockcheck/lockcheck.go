// Package lockcheck is a vet fixture mirroring internal/lockcheck: the same
// ranks (vet_test.go pins them to the real ones), the holder, and the no-op
// calls the shims route through.
package lockcheck

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

type Holder struct{}

func Acquire(h *Holder, obj any, rank int) {}

func Acquired(h *Holder, obj any, rank int) {}

func Release(h *Holder, obj any, rank int) {}
