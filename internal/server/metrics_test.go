package server

import (
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"github.com/spitfire-db/spitfire/internal/obs"
)

// TestCounterTable: every counter field of Stats is fed by exactly one row
// of the counter table, and every named row reaches a live /metrics scrape
// with its counter's value.
func TestCounterTable(t *testing.T) {
	db, kv, _ := newTestEngine(t, false)
	s, ts := newTestServer(t, Options{DB: db, KV: kv, Obs: obs.New(obs.Config{})})

	// Stats fields that are state, not counters.
	state := map[string]bool{
		"Inflight": true, "Queued": true, "Clients": true,
		"Draining": true, "ReadOnly": true, "Shedding": true, "MinFreeFracSeen": true,
	}
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	fieldAt := map[*int64]string{}
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !state[name] {
			fieldAt[v.Field(i).Addr().Interface().(*int64)] = name
		}
	}
	rowOf := map[string]int{}
	for i, r := range counters(&st) {
		name, ok := fieldAt[r.snap]
		if !ok {
			t.Fatalf("row %d (%q) feeds no counter field of Stats", i, r.name)
		}
		if prev, dup := rowOf[name]; dup {
			t.Errorf("rows %d and %d both feed Stats.%s", prev, i, name)
		}
		rowOf[name] = i
	}
	for _, name := range fieldAt {
		if _, ok := rowOf[name]; !ok {
			t.Errorf("no row feeds Stats.%s", name)
		}
	}
	if t.Failed() {
		return
	}

	// Bump every counter once, each by a value of its own.
	for i := range s.cnt {
		s.cnt[i].Add(int64(i + 1))
	}
	st = s.Stats()
	for i, r := range counters(&st) {
		if *r.snap != int64(i+1) {
			t.Errorf("counter %d (%q) reads %d in Stats, want %d", i, r.name, *r.snap, i+1)
		}
	}

	code, scrape, _ := doReq(t, "GET", ts.URL+"/metrics", nil)
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for i, r := range counters(&st) {
		if r.name == "" {
			if counter(i) != cDrainCheckpoints {
				t.Errorf("counter %d has no sample name; only drain_checkpoints is /stats.json-only", i)
			}
			continue
		}
		m := regexp.MustCompile(`(?m)^spitfire_` + r.name + `_total (\d+)$`).FindStringSubmatch(scrape)
		if m == nil {
			t.Errorf("/metrics carries no spitfire_%s_total", r.name)
		} else if got, _ := strconv.ParseInt(m[1], 10, 64); got != int64(i+1) {
			t.Errorf("spitfire_%s_total = %d, want %d", r.name, got, i+1)
		}
	}
}
