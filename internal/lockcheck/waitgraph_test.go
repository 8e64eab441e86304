//go:build lockcheck

package lockcheck

import (
	"strings"
	"testing"
)

// TestWaitGraphRecordsCrossGoroutineWait drives a legal cross-rank blocking
// acquisition — a descriptor's mu under its own latchD, the order of every
// slot write — while another goroutine holds the mu, and checks the wait
// edge shows up in the report.
func TestWaitGraphRecordsCrossGoroutineWait(t *testing.T) {
	EnableWaitGraph()
	defer DisableWaitGraph()

	var h, other Holder
	d := new(int)
	heldc := make(chan struct{})
	donec := make(chan struct{})
	go func() {
		Acquired(&other, d, RankMu)
		close(heldc)
		<-donec
		Release(&other, d, RankMu)
	}()
	<-heldc

	// h holds latchD and blocks wanting the mu the other holder holds: a
	// latchD → mu wait edge. (The real shim would now call mutex.Lock;
	// the recording happens at Acquire time.)
	Acquired(&h, d, RankD)
	Acquire(&h, d, RankMu)
	Release(&h, d, RankMu)
	Release(&h, d, RankD)
	close(donec)

	report := WaitGraphReport()
	found := false
	for _, line := range report {
		if strings.HasPrefix(line, "CYCLE:") {
			t.Fatalf("unexpected cycle in report: %q", line)
		}
		if strings.Contains(line, "latchD → mu") {
			found = true
		}
	}
	if !found {
		t.Fatalf("report missing latchD → mu wait edge: %q", report)
	}
}

// TestWaitGraphIgnoresUncontendedAndBareWaits checks the two non-edges: a
// blocking acquisition of an unheld latch, and a blocking acquisition by a
// holder that holds nothing (it cannot be part of a deadlock cycle).
func TestWaitGraphIgnoresUncontendedAndBareWaits(t *testing.T) {
	EnableWaitGraph()
	defer DisableWaitGraph()

	var h, other Holder
	muObj := new(int)
	dObj := new(int)

	// Uncontended: nothing holds muObj, so latchD → mu is not a wait.
	Acquired(&h, dObj, RankD)
	Acquire(&h, muObj, RankMu)
	Release(&h, muObj, RankMu)
	Release(&h, dObj, RankD)

	// Bare: another holder holds muObj but h holds nothing.
	heldc := make(chan struct{})
	donec := make(chan struct{})
	go func() {
		Acquired(&other, muObj, RankMu)
		close(heldc)
		<-donec
		Release(&other, muObj, RankMu)
	}()
	<-heldc
	Acquire(&h, muObj, RankMu)
	Release(&h, muObj, RankMu)
	close(donec)

	if report := WaitGraphReport(); len(report) != 0 {
		t.Fatalf("expected empty report, got %q", report)
	}
}

// TestWaitGraphCycleDetection feeds the detector a synthetic rank cycle.
// Synthetic because a real one cannot happen: the discipline rules panic on
// the acquisition that would close it before any edge is recorded.
func TestWaitGraphCycleDetection(t *testing.T) {
	EnableWaitGraph()
	defer DisableWaitGraph()

	recordWaitEdge(RankD, RankN)
	recordWaitEdge(RankN, RankS)
	recordWaitEdge(RankS, RankD)
	recordWaitEdge(RankN, RankFg) // acyclic bystander

	report := WaitGraphReport()
	var cycles []string
	for _, line := range report {
		if strings.HasPrefix(line, "CYCLE:") {
			cycles = append(cycles, line)
		}
	}
	if len(cycles) != 1 {
		t.Fatalf("expected exactly one cycle, got %q (full report %q)", cycles, report)
	}
	want := "CYCLE: latchD → latchN → latchS → latchD"
	if cycles[0] != want {
		t.Fatalf("cycle = %q, want %q", cycles[0], want)
	}

	// Two-node cycle on top: both cycles must be reported.
	recordWaitEdge(RankN, RankD)
	report = WaitGraphReport()
	cycles = cycles[:0]
	for _, line := range report {
		if strings.HasPrefix(line, "CYCLE:") {
			cycles = append(cycles, line)
		}
	}
	if len(cycles) != 2 {
		t.Fatalf("expected two cycles, got %q", cycles)
	}
}

// TestWaitGraphDisabledRecordsNothing checks recording is inert when off.
func TestWaitGraphDisabledRecordsNothing(t *testing.T) {
	EnableWaitGraph()
	DisableWaitGraph()

	var h, other Holder
	muObj := new(int)
	dObj := new(int)
	heldc := make(chan struct{})
	donec := make(chan struct{})
	go func() {
		Acquired(&other, muObj, RankMu)
		close(heldc)
		<-donec
		Release(&other, muObj, RankMu)
	}()
	<-heldc
	Acquired(&h, dObj, RankD)
	Acquire(&h, muObj, RankMu)
	Release(&h, muObj, RankMu)
	Release(&h, dObj, RankD)
	close(donec)

	if report := WaitGraphReport(); len(report) != 0 {
		t.Fatalf("expected empty report while disabled, got %q", report)
	}
}
