package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/spitfire-db/spitfire/internal/vclock"
)

// serve-http drives the real spitfire-serve binary over loopback HTTP/1.1
// keep-alive connections, one per worker, with kv-txn's keys, values and
// checks. It is the only workload that exercises the shipped binary's own
// assembly of the stack, and the one on which an engine optimisation is
// predicted to move nothing: transport and admission are most of a request.
const (
	serveSegOps   = 1000 // requests per worker per segment: about 150 ms on the sizing host
	serveWarmOps  = 5000
	servePutPct   = 10
	serveRetries  = 16 // 409 retries before a request counts as failed
	serveScanPage = 10000
	openLoopConns = 8
	openLoopRate  = 2000 // requests a second
)

// buildServer compiles cmd/spitfire-serve from the checkout into dir.
func buildServer(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "spitfire-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spitfire-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/spitfire-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running spitfire-serve in its own process group.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once stderr is drained
	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var servingRE = regexp.MustCompile(`serving on http://([^/\s]+)/`)

// live tracks running servers so a signal can take them down with the rig.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killLive() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		p.signalGroup(syscall.SIGKILL)
	}
}

func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dram-mb", strconv.Itoa(kvDRAMMiB),
		"-nvm-mb", strconv.Itoa(kvNVMMiB), "-max-value", strconv.Itoa(kvMaxValue))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()

	// The port comes from the "serving on http://ADDR/" line; stderr is then
	// drained for the life of the process so the server never blocks on it.
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-p.done:
		p.kill()
		return nil, fmt.Errorf("spitfire-serve exited before serving:\n%s", p.stderrTail())
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, fmt.Errorf("spitfire-serve did not report its address:\n%s", p.stderrTail())
	}
	// Liveness, not readiness: /readyz goes 503 for good once the data
	// outgrows DRAM (ROADMAP blocker), which is exactly this workload.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("spitfire-serve /healthz never answered 200 (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *serverProc) signalGroup(sig syscall.Signal) {
	// Negative pid: the whole group. ESRCH once it is gone is fine.
	_ = syscall.Kill(-p.cmd.Process.Pid, sig)
}

// kill stops the server's process group and waits until it has ended.
func (p *serverProc) kill() {
	p.signalGroup(syscall.SIGKILL)
	<-p.done
	_ = p.cmd.Wait() // "signal: killed" is the expected outcome
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// httpConn is a synchronous HTTP/1.1 keep-alive client on one connection:
// write the request, parse the response with net/http's own reader, all on
// the calling goroutine. http.Transport would add two goroutines and their
// hand-offs per request, on the same two cores the server needs.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body bytes.Buffer
}

func dial(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}, nil
}

// do sends one request and returns the status and the body, which is valid
// until the next call.
func (h *httpConn) do(method, path string, body []byte) (int, []byte, error) {
	if err := h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	h.bw.WriteString(method)
	h.bw.WriteByte(' ')
	h.bw.WriteString(path)
	h.bw.WriteString(" HTTP/1.1\r\nHost: bench\r\n")
	if body != nil {
		h.bw.WriteString("Content-Length: ")
		h.bw.WriteString(strconv.Itoa(len(body)))
		h.bw.WriteString("\r\n")
	}
	h.bw.WriteString("\r\n")
	h.bw.Write(body)
	if err := h.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, h.body.Bytes(), nil
}

type serveWorker struct {
	tally
	kvOracle
	conn *httpConn
	r    *rng
	val  [kvValueLen]byte
	path []byte
	kind [2][]uint32 // traced round trips: GET, PUT
}

type serveDriver struct {
	cfg  *config
	nw   int
	seg  int
	zipf *zipfTable
	proc *serverProc
	ctl  *httpConn      // set-up, scrapes and the audit
	w    []*serveWorker // closed-loop workers, then the open-loop probe's

	rssStart float64 // server VmRSS in MiB once loaded and warm
}

// The end-to-end run drives one connection. Rig and server share the host's
// two cores, and with two connections four runnable threads queue for them:
// the 99th percentile then measures the run queue (its spread between runs
// was 35-55 % of its median against 12 % with one connection, and the
// server's peak memory turned bimodal). The traced run's all-workers pass
// keeps two connections for the contention counters.
func newServeDriver(cfg *config) *serveDriver {
	nw := 1
	if cfg.trace {
		nw = cfg.workers
	}
	return &serveDriver{cfg: cfg, nw: nw, seg: cfg.scaled(serveSegOps)}
}

func (d *serveDriver) workers() int   { return d.nw }
func (d *serveDriver) segOps() int    { return d.seg }
func (d *serveDriver) pid() int       { return d.proc.cmd.Process.Pid }
func (d *serveDriver) quiesce() error { return nil }
func (d *serveDriver) layer() string  { return "server" }

func (d *serveDriver) clock(int) *vclock.Clock { return nil }

// size cannot ask the server; kv-txn's table of the same keys has this many pages.
func (d *serveDriver) size() (items, frames int) { return 1695, kvDRAMMiB << 20 / 16384 }

func (d *serveDriver) close() {
	if d.proc == nil {
		return
	}
	for _, w := range d.w {
		w.conn.c.Close()
	}
	if d.ctl != nil {
		d.ctl.c.Close()
	}
	d.proc.kill()
	d.proc = nil
}

func (d *serveDriver) tallies() []*tally {
	out := make([]*tally, len(d.w))
	for i, w := range d.w {
		out[i] = &w.tally
	}
	return out
}

func (d *serveDriver) setup() error {
	if d.cfg.serverBin == "" {
		return fmt.Errorf("no spitfire-serve binary (main builds one; tests pass -server-bin)")
	}
	p, err := startServer(d.cfg.serverBin)
	if err != nil {
		return err
	}
	d.proc = p
	if d.ctl, err = dial(p.addr); err != nil {
		return err
	}
	d.zipf = newZipfTable(kvKeys, kvTheta, d.cfg.seed)
	n := d.nw
	if d.cfg.trace {
		n += openLoopConns
	}
	d.w = make([]*serveWorker, n)
	for i := range d.w {
		w := &serveWorker{
			kvOracle: kvOracle{worker: uint16(i), seq: make([]uint32, kvKeys)},
			r:        newRNG(d.cfg.seed*1000 + uint64(i) + 1),
		}
		if w.conn, err = dial(p.addr); err != nil {
			return err
		}
		if i < d.nw {
			w.lat = make([]uint32, 0, sampleCap(d.cfg, 20_000))
		}
		d.w[i] = w
	}

	type op struct {
		Op    string `json:"op"`
		Key   uint64 `json:"key"`
		Value []byte `json:"value"`
	}
	for base := 0; base < kvKeys; base += kvLoadTxn {
		var req struct {
			Ops []op `json:"ops"`
		}
		for k := base; k < min(base+kvLoadTxn, kvKeys); k++ {
			val := make([]byte, kvValueLen)
			stamp{id: uint64(k), worker: loaderID}.put(val)
			req.Ops = append(req.Ops, op{"put", uint64(k), val})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		status, resp, err := d.ctl.do("POST", "/kv/txn", body)
		if err != nil {
			return fmt.Errorf("load batch at key %d: %w", base, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("load batch at key %d: status %d: %s", base, status, resp)
		}
	}
	runSegment(d, d.nw, d.cfg.scaled(serveWarmOps), nil)
	for _, w := range d.w {
		w.lat = w.lat[:0]
	}
	if _, d.rssStart, err = rssMB(d.pid()); err != nil {
		return err
	}
	if _, f, _ := totals(d.tallies()); f > 0 {
		return fmt.Errorf("%d failures during load and warm-up", f)
	}
	return nil
}

// request issues the worker's next request, retrying 409s, and reports
// whether it was a PUT and whether it succeeded with its checks passed.
func (d *serveDriver) request(w *serveWorker) (put, ok bool) {
	u := w.r.next()
	key := d.zipf.draw(w.r)
	put = (u&0xFFFFFFFF)*100>>32 < servePutPct
	w.attempted++
	w.path = append(w.path[:0], "/kv/get?key="...)
	method, body, want := "GET", []byte(nil), http.StatusOK
	if put {
		w.path = append(w.path[:0], "/kv/put?key="...)
		stamp{id: key, worker: w.worker, seq: w.seq[key] + 1}.put(w.val[:])
		method, body, want = "PUT", w.val[:], http.StatusNoContent
	}
	w.path = strconv.AppendUint(w.path, key, 10)
	for try := 0; try <= serveRetries; try++ {
		status, resp, err := w.conn.do(method, string(w.path), body)
		if err != nil {
			return put, false
		}
		if status == http.StatusConflict {
			w.retries++
			continue
		}
		if status != want {
			return put, false
		}
		if put {
			w.seq[key]++
			return put, true
		}
		return put, w.checkValue(key, resp)
	}
	return put, false
}

func (d *serveDriver) run(wi, n int, rec *recorder) {
	w := d.w[wi]
	for i := 0; i < n; i++ {
		t0 := now()
		put, ok := d.request(w)
		t1 := now()
		w.lat = append(w.lat, clampNs(t1-t0))
		if !ok {
			w.fail()
		}
		if rec != nil {
			rec.op++
			rec.begin(spOp, t0)
			rec.span(spRequest, t0, t1)
			rec.end(t1)
			k := 0
			if put {
				k = 1
			}
			w.kind[k] = append(w.kind[k], clampNs(t1-t0))
		}
	}
}

// audit pages through /kv/scan and checks every key as kv-txn's audit does.
func (d *serveDriver) audit() error {
	oracles := make([]*kvOracle, len(d.w))
	for i, w := range d.w {
		oracles[i] = &w.kvOracle
	}
	t := &d.w[0].tally
	next := uint64(0)
	for next < kvKeys {
		path := fmt.Sprintf("/kv/scan?from=%d&limit=%d&deadline_ms=30000", next, serveScanPage)
		status, body, err := d.ctl.do("GET", path, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("scan from %d: status %d: %s", next, status, body)
		}
		rows := 0
		dec := json.NewDecoder(bytes.NewReader(body))
		for dec.More() {
			var row struct {
				Key   uint64 `json:"key"`
				Value []byte `json:"value"`
			}
			if err := dec.Decode(&row); err != nil {
				return fmt.Errorf("scan from %d: %w", next, err)
			}
			for ; next < row.Key; next++ {
				t.attempted++
				t.fail()
			}
			t.attempted++
			if !auditValue(oracles, row.Key, row.Value) {
				t.fail()
			}
			next = row.Key + 1
			rows++
		}
		if rows == 0 {
			break
		}
	}
	for ; next < kvKeys; next++ {
		t.attempted++
		t.fail()
	}
	return nil
}

// scrape reads the server's flat (label-free) Prometheus samples.
func (d *serveDriver) scrape() (map[string]float64, error) {
	status, body, err := d.ctl.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func (d *serveDriver) snap() (counters, error) {
	pm, err := d.scrape()
	if err != nil {
		return nil, err
	}
	status, body, err := d.ctl.do("GET", "/stats.json", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/stats.json: status %d", status)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/stats.json: %w", err)
	}
	num := func(k string) float64 { v, _ := st[k].(float64); return v }
	c := counters{
		"hit_dram":       pm["spitfire_hit_dram_total"] + pm["spitfire_hit_mini_total"],
		"hit_nvm":        pm["spitfire_hit_nvm_total"],
		"miss":           pm["spitfire_miss_ssd_total"],
		"evict_dram":     pm["spitfire_evict_dram_total"],
		"evict_nvm":      pm["spitfire_evict_nvm_total"],
		"fg_evicts":      pm["spitfire_foreground_evicts_total"],
		"cleaner_stalls": pm["spitfire_cleaner_stalls_total"],
		"wal_appends":    pm["spitfire_wal_appends_total"],
		"wal_flushes":    pm["spitfire_wal_flushes_total"],
		"wal_commits":    pm["spitfire_wal_commits_total"],
		"handler_ns":     pm["spitfire_req_get_ns_sum"] + pm["spitfire_req_put_ns_sum"],
		"handler_n":      pm["spitfire_req_get_ns_count"] + pm["spitfire_req_put_ns_count"],
		"conflict_409":   num("conflicts"),
		"txn_retries":    num("txn_retries"),
		"refused": num("rejected_queue_full") + num("rejected_draining") + num("rejected_read_only") +
			num("shed") + num("queue_expired") + num("deadline_exceeded"),
	}
	return c, nil
}

// ready reports whether /readyz answers 200.
func (d *serveDriver) ready() (bool, error) {
	status, _, err := d.ctl.do("GET", "/readyz", nil)
	return status == http.StatusOK, err
}

// openLoop is the non-gating open-loop probe: requests fall due every
// 1/rate seconds whatever the server does, each is timed from its due time
// (so a stall is charged to every request it delays), and how late the
// generator itself ran is reported beside the latencies.
func (d *serveDriver) openLoop(seconds float64) (lat, late []uint32) {
	n := int(openLoopRate * seconds)
	interval := int64(time.Second) / openLoopRate
	due := make(chan int64, n) // every due time fits: the dispatcher never blocks on a slow server
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, w := range d.w[d.nw:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []uint32
			for t := range due {
				if _, ok := d.request(w); !ok {
					w.fail()
				}
				mine = append(mine, clampNs(now()-t))
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	start := now() + int64(time.Millisecond)
	for i := 0; i < n; i++ {
		t := start + int64(i)*interval
		if wait := t - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		late = append(late, clampNs(now()-t))
		due <- t
	}
	close(due)
	wg.Wait()
	slices.Sort(lat)
	slices.Sort(late)
	return lat, late
}
