// Package admission implements HyMem's NVM admission queue (§1, §6.5 of the
// paper).
//
// HyMem decides NVM admission by remembering recently *denied* pages: each
// time a DRAM-evicted page is considered for the NVM buffer, the queue is
// consulted. If the page is already queued it is removed and admitted;
// otherwise it is enqueued and the page bypasses NVM (going straight to
// SSD). The effect is that only pages evicted from DRAM at least twice
// within the queue's horizon land on NVM — a second-chance filter for warm
// pages.
//
// The paper determined empirically (§6.5) that a capacity of half the number
// of NVM buffer pages works well; callers size the queue accordingly.
package admission

import "sync"

type node struct {
	pid        uint64
	prev, next *node
}

// Queue is a fixed-capacity FIFO of page identifiers with O(1) membership
// tests and removal. It is safe for concurrent use. New allocates its
// capacity nodes at once: an entry that leaves the queue leaves its node for
// the next denial, so Admit allocates nothing.
type Queue struct {
	mu       sync.Mutex
	capacity int
	byPID    map[uint64]*node
	head     *node // oldest
	tail     *node // newest
	spare    *node // nodes no entry holds, linked through next
}

// New creates a queue that remembers up to capacity denied pages.
func New(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	nodes := make([]node, capacity)
	for i := range nodes[1:] {
		nodes[i].next = &nodes[i+1]
	}
	return &Queue{
		capacity: capacity,
		byPID:    make(map[uint64]*node, capacity),
		spare:    &nodes[0],
	}
}

// Capacity returns the configured capacity.
func (q *Queue) Capacity() int { return q.capacity }

// Len returns the number of queued pages.
func (q *Queue) Len() int {
	q.mu.Lock()
	n := len(q.byPID)
	q.mu.Unlock()
	return n
}

// Admit runs HyMem's admission check for pid and reports whether the page
// should be admitted to the NVM buffer. If the page was queued it is removed
// and admitted (returns true); otherwise it is enqueued — evicting the
// oldest entry if the queue is full — and denied (returns false).
func (q *Queue) Admit(pid uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()

	if n, ok := q.byPID[pid]; ok {
		q.drop(n)
		return true
	}

	if len(q.byPID) >= q.capacity {
		q.drop(q.head)
	}
	n := q.spare // never nil: the queue holds fewer than capacity entries here
	q.spare, n.next = n.next, nil
	n.pid = pid
	q.pushTail(n)
	q.byPID[pid] = n
	return false
}

// Contains reports whether pid is currently queued.
func (q *Queue) Contains(pid uint64) bool {
	q.mu.Lock()
	_, ok := q.byPID[pid]
	q.mu.Unlock()
	return ok
}

// Forget drops pid from the queue if present (used when a page is freed).
func (q *Queue) Forget(pid uint64) {
	q.mu.Lock()
	if n, ok := q.byPID[pid]; ok {
		q.drop(n)
	}
	q.mu.Unlock()
}

// drop takes queued node n out of the queue and keeps it for reuse. Caller
// holds q.mu.
func (q *Queue) drop(n *node) {
	q.remove(n)
	delete(q.byPID, n.pid)
	n.next, q.spare = q.spare, n
}

// remove unlinks n from the list. Caller holds q.mu.
func (q *Queue) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushTail appends n as the newest entry. Caller holds q.mu.
func (q *Queue) pushTail(n *node) {
	n.prev = q.tail
	if q.tail != nil {
		q.tail.next = n
	} else {
		q.head = n
	}
	q.tail = n
}
