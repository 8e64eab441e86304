//go:build lockcheck

package lockcheck

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Waitgraph mode augments the panic-on-violation discipline checker with a
// post-run report: while enabled, every *blocking* acquisition that finds
// its target latch held by another holder records wait-for edges from each
// rank the waiter already holds to the rank it wants. After the run,
// WaitGraphReport summarizes the observed edges and searches the rank
// digraph for cycles — the shape a deadlock would have had. The discipline
// rules make rank cycles panic before they can hang, so a clean run reports
// none; the report exists to show which cross-rank waits actually happened
// under a real workload (and to catch a future rule relaxation that opens a
// cycle the per-acquisition rules no longer reject).
var wgraph struct {
	// on is read before mu, so an acquisition while recording is off
	// takes no lock.
	on atomic.Bool
	mu sync.Mutex
	// holders maps a latch object to the holders that have recorded (and
	// not yet released) an acquisition of it. Counted, because a holder
	// may legally stack acquisitions of distinct ranks on one object but
	// Release matches by (obj, rank) pairs.
	holders map[any]map[*Holder]int
	// edges counts observed wait-for pairs: [heldRank, wantedRank] → n.
	edges map[[2]int]int64
}

// EnableWaitGraph resets and starts wait-for recording. Call it before the
// workload under test; while it runs, recording costs one global mutex per
// acquisition, which is acceptable in a -tags lockcheck debug build.
func EnableWaitGraph() {
	wgraph.mu.Lock()
	defer wgraph.mu.Unlock()
	wgraph.holders = map[any]map[*Holder]int{}
	wgraph.edges = map[[2]int]int64{}
	wgraph.on.Store(true)
}

// DisableWaitGraph stops recording (the accumulated edges remain until the
// next EnableWaitGraph).
func DisableWaitGraph() {
	wgraph.mu.Lock()
	defer wgraph.mu.Unlock()
	wgraph.on.Store(false)
}

// noteAcquired records h as a holder of obj.
func noteAcquired(h *Holder, obj any) {
	if !wgraph.on.Load() {
		return
	}
	wgraph.mu.Lock()
	defer wgraph.mu.Unlock()
	m := wgraph.holders[obj]
	if m == nil {
		m = map[*Holder]int{}
		wgraph.holders[obj] = m
	}
	m[h]++
}

// noteReleased drops one holder count of obj by h.
func noteReleased(h *Holder, obj any) {
	if !wgraph.on.Load() {
		return
	}
	wgraph.mu.Lock()
	defer wgraph.mu.Unlock()
	m := wgraph.holders[obj]
	if m == nil {
		return
	}
	if m[h]--; m[h] <= 0 {
		delete(m, h)
	}
	if len(m) == 0 {
		delete(wgraph.holders, obj)
	}
}

// noteWait records wait-for edges for h blocking on (obj, rank) while
// holding the latches on its stack. Edges are only recorded when some
// *other* holder currently holds obj — that is what makes it a wait.
func noteWait(h *Holder, obj any, rank int) {
	if len(h.held) == 0 || !wgraph.on.Load() {
		return
	}
	wgraph.mu.Lock()
	defer wgraph.mu.Unlock()
	heldByOther := false
	for other := range wgraph.holders[obj] {
		if other != h {
			heldByOther = true
			break
		}
	}
	if !heldByOther {
		return
	}
	for _, l := range h.held {
		wgraph.edges[[2]int{l.Rank, rank}]++
	}
}

// recordWaitEdge injects a synthetic edge. Test hook: real workloads cannot
// produce a rank cycle without panicking first, so the cycle detector is
// exercised with synthetic adjacency.
func recordWaitEdge(from, to int) {
	wgraph.mu.Lock()
	defer wgraph.mu.Unlock()
	if wgraph.edges == nil {
		wgraph.edges = map[[2]int]int64{}
	}
	wgraph.edges[[2]int{from, to}]++
}

// WaitGraphReport returns a deterministic summary of the recorded wait-for
// graph: one "wait: <held> → <wanted> (n)" line per observed edge in rank
// order, followed by one "CYCLE: a → b → ... → a" line per elementary cycle
// in the rank digraph. An empty slice means no cross-holder latch waits
// were observed at all.
func WaitGraphReport() []string {
	wgraph.mu.Lock()
	type edge struct {
		from, to int
		n        int64
	}
	var edges []edge
	for k, n := range wgraph.edges {
		edges = append(edges, edge{k[0], k[1], n})
	}
	wgraph.mu.Unlock()

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	var out []string
	adj := map[int][]int{}
	for _, e := range edges {
		out = append(out, fmt.Sprintf("wait: %s → %s (%d)", RankName(e.from), RankName(e.to), e.n))
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, cyc := range rankCycles(adj) {
		line := "CYCLE:"
		for _, r := range cyc {
			line += " " + RankName(r) + " →"
		}
		out = append(out, line+" "+RankName(cyc[0]))
	}
	return out
}

// rankCycles finds the elementary cycles of the (tiny) rank digraph by DFS
// from every node, canonicalized to start at their smallest rank and
// deduplicated. The graph has at most 9 nodes, so brute force is fine.
func rankCycles(adj map[int][]int) [][]int {
	var cycles [][]int
	seen := map[string]bool{}
	nodes := make([]int, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	var path []int
	onPath := map[int]bool{}
	var dfs func(n int)
	dfs = func(n int) {
		path = append(path, n)
		onPath[n] = true
		next := append([]int(nil), adj[n]...)
		sort.Ints(next)
		for _, m := range next {
			if onPath[m] {
				// Cycle: the slice of path from m's position onward.
				for i, p := range path {
					if p == m {
						cyc := canonicalCycle(path[i:])
						key := fmt.Sprint(cyc)
						if !seen[key] {
							seen[key] = true
							cycles = append(cycles, cyc)
						}
						break
					}
				}
				continue
			}
			dfs(m)
		}
		onPath[n] = false
		path = path[:len(path)-1]
	}
	for _, n := range nodes {
		dfs(n)
	}
	sort.Slice(cycles, func(i, j int) bool { return fmt.Sprint(cycles[i]) < fmt.Sprint(cycles[j]) })
	return cycles
}

// canonicalCycle rotates a cycle to start at its smallest rank.
func canonicalCycle(c []int) []int {
	min := 0
	for i := range c {
		if c[i] < c[min] {
			min = i
		}
	}
	out := make([]int, 0, len(c))
	out = append(out, c[min:]...)
	out = append(out, c[:min]...)
	return out
}
