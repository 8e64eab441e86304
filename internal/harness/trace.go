package harness

import (
	"errors"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/tracereplay"
)

// traceWorkload replays a recorded trace (tracereplay.Parse) against one
// table that holds a tuple for every key up to the trace's largest.
type traceWorkload struct {
	db  *engine.DB
	tb  *engine.Table
	ops []tracereplay.Op
}

func setupTrace(db *engine.DB, ops []tracereplay.Op, tupleSize int) (*traceWorkload, error) {
	if len(ops) == 0 {
		return nil, errors.New("harness: a Trace workload needs operations")
	}
	if tupleSize == 0 {
		tupleSize = 1000
	}
	tb, err := db.CreateTable(1, "trace", tupleSize)
	if err != nil {
		return nil, err
	}
	maxKey := uint64(0)
	for _, op := range ops {
		maxKey = max(maxKey, op.Key)
	}
	ctx := core.NewCtx(0x7ACE)
	if err := tb.Load(ctx, maxKey+1, func(i uint64, p []byte) uint64 { return i }); err != nil {
		return nil, err
	}
	return &traceWorkload{db: db, tb: tb, ops: ops}, nil
}

// traceWorker replays ops wi, wi+workers, ... of the trace, one
// transaction each.
type traceWorker struct {
	tw                 *traceWorkload
	ctx                *core.Ctx
	next, stride       int
	payload, buf       []byte
	committed, aborted int64
}

func (tw *traceWorkload) newWorker(wi, workers int, seed uint64) *traceWorker {
	n := tw.tb.TupleSize()
	return &traceWorker{
		tw: tw, ctx: core.NewCtx(seed), next: wi, stride: workers,
		payload: make([]byte, n), buf: make([]byte, n),
	}
}

// share is how many operations of the trace are the worker's.
func (w *traceWorker) share() int {
	return (len(w.tw.ops) - w.next + w.stride - 1) / w.stride
}

func (w *traceWorker) op() (bool, error) {
	op := w.tw.ops[w.next]
	w.next += w.stride
	txn := w.tw.db.Begin()
	var err error
	if op.Write {
		w.payload[0]++
		err = w.tw.tb.Update(w.ctx, txn, op.Key, w.payload)
	} else {
		err = w.tw.tb.Read(w.ctx, txn, op.Key, w.buf)
	}
	if err != nil {
		if aerr := txn.Abort(w.ctx); aerr != nil {
			return false, aerr
		}
		if !errors.Is(err, engine.ErrConflict) {
			return false, err
		}
		w.aborted++
		return false, nil
	}
	if err := txn.Commit(w.ctx); err != nil {
		return false, err
	}
	w.committed++
	return true, nil
}
