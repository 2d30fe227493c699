package main

// serve_mix: the real hjserve binary driven over its line protocol by
// two closed-loop client connections (each sends its next request only
// after the previous reply), so admission, the shared morsel pool, the
// build-side cache and the protocol all sit on the measured path.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Pair sizes. The hot pair serves cached streaming probes, the agg pair
// a partitioned aggregation, and each connection reloads its own churn
// pair. Every pair's hash table fits a core's 2 MiB L2 (about 66 bytes
// a row): a table that lives in the shared L3 runs up to twice as slow
// whenever other guests on the host fill that cache, which made the
// median of runs minutes apart swing by 30%. A replaced pair's arena
// space is never reclaimed, so the churn pair is small (about 0.28 MB)
// and reloads are paced by the clock: a 33 s run with its warm-up
// reloads 1,400 times, about 390 MB of serverCapacity, however fast the
// server is. hjserve.rss_mb_per_reload reports the growth.
const (
	hotBuild, hotProbe     = 12_000, 24_000
	aggBuild, aggProbe     = 24_000, 48_000
	churnBuild, churnProbe = 2_000, 4_000
	conns                  = 2
	serverCapacity         = 512 << 20
	cycle                  = 9  // queries per connection cycle, see request
	reload                 = -1 // the request slot of a churn reload

	// reloadEvery paces each connection's churn reloads by the clock, so
	// a run of a given length reloads as many times however fast the
	// server answers, and its arena use and peak RSS do not grow with
	// qps. At the speed measured when the mix was set (about 270
	// requests per connection per second) it is one reload in about 14
	// requests.
	reloadEvery = 50 * time.Millisecond
)

// serveKeySum is the expected inner-join key sum of a pair the pair
// command generates with build <= probe: its build keys are the fixed
// bijection (i*2654435761)<<1 of i < build, each matched by exactly one
// probe tuple, whatever the seed (the seed only shuffles tuple order).
func serveKeySum(build int) uint64 {
	var s uint64
	for i := 0; i < build; i++ {
		s += uint64((uint32(i) * 2654435761) << 1)
	}
	return s
}

type hjserve struct {
	cmd    *exec.Cmd
	addr   string
	output chan struct{} // closed once the server's stdout hits EOF
}

// startServer boots hjserve on free loopback ports and waits for its
// listening line.
func startServer(bin, spillDir string) (*hjserve, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-workers", "2", "-capacity", strconv.Itoa(serverCapacity), "-spill-dir", spillDir)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "HJ_CHAOS=") { // no fault injection
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Stderr = os.Stderr
	// The server dies with this process even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hjserve: %w", err)
	}
	s := &hjserve{cmd: cmd, output: make(chan struct{})}
	addr := make(chan string, 1) // sized to the one send
	go func() {
		defer close(s.output)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "hjserve: listening addr="); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
		}
		io.Copy(io.Discard, out) // a line too long for the scanner: keep draining
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.output:
	case <-time.After(30 * time.Second):
	}
	s.stop()
	return nil, errors.New("hjserve did not report its listening address")
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; it kills a server that has not exited after 20 s.
func (s *hjserve) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.output:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.output
	}
	return s.cmd.Wait()
}

type client struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, r: bufio.NewReader(c)}, nil
}

// do sends one request line and parses the "ok k=v ..." reply.
func (c *client) do(line string) (kv map[string]string, start, end time.Time, err error) {
	start = time.Now()
	if err = c.c.SetDeadline(start.Add(2 * time.Minute)); err != nil {
		return nil, start, start, err
	}
	if _, err = io.WriteString(c.c, line+"\n"); err != nil {
		return nil, start, time.Now(), err
	}
	reply, err := c.r.ReadString('\n')
	end = time.Now()
	if err != nil {
		return nil, start, end, err
	}
	reply = strings.TrimSpace(reply)
	rest, ok := strings.CutPrefix(reply, "ok ")
	if !ok {
		return nil, start, end, &replyError{line: line, reply: reply}
	}
	kv = map[string]string{}
	for _, f := range strings.Fields(rest) {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv, start, end, nil
}

// replyError is a request the server answered with something other
// than an ok line; the connection itself still works.
type replyError struct{ line, reply string }

func (e *replyError) Error() string { return fmt.Sprintf("%q: %s", e.line, e.reply) }

// expect checks integer fields of a reply.
func expect(kv map[string]string, want map[string]uint64) error {
	for k, w := range want {
		got, err := strconv.ParseUint(kv[k], 10, 64)
		if err != nil || got != w {
			return fmt.Errorf("%s=%q, want %d", k, kv[k], w)
		}
	}
	return nil
}

func pairLine(name string, build, probe int, seed int64) string {
	return fmt.Sprintf("pair name=%s build=%d probe=%d seed=%d", name, build, probe, seed)
}

// sample is one completed request.
type sample struct {
	kind       string // hot | agg | churn | pair
	start, end time.Time
	serverMS   float64 // the ok line's elapsed_us (queries)
	queueMS    float64 // the ok line's queue_wait_us (queries)
	traced     bool
}

func (s sample) ms() float64 { return ms(s.end.Sub(s.start)) }

type serveRun struct {
	o        options
	tr       *tracer
	rep      *report
	hotSum   uint64
	aggSum   uint64
	churnSum uint64
	mu       sync.Mutex // guards rep and samples across the client goroutines
	samples  []sample
	spillDir string
	reloads  [conns]int // each connection's reloads so far; its own goroutine's
}

// bootAndLoad is one set-up: boot the server and load every pair. It
// returns the client used for loading and the load round trips.
func (r *serveRun) bootAndLoad() (*hjserve, *client, float64, error) {
	srv, err := startServer(r.o.hjserve, r.spillDir)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := dial(srv.addr)
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	lines := []string{
		pairLine("hot", hotBuild, hotProbe, r.o.seed),
		pairLine("agg", aggBuild, aggProbe, r.o.seed+1),
	}
	wants := []map[string]uint64{
		{"matches": hotBuild, "keysum": r.hotSum},
		{"matches": aggBuild, "keysum": r.aggSum},
	}
	for i := 0; i < conns; i++ {
		lines = append(lines, pairLine(fmt.Sprintf("churn%d", i), churnBuild, churnProbe, r.o.seed+2+int64(i)))
		wants = append(wants, map[string]uint64{"matches": churnBuild, "keysum": r.churnSum})
	}
	var loadS float64
	for i, line := range lines {
		want := wants[i]
		kv, t0, t1, err := c.do(line)
		if err == nil {
			err = expect(kv, want)
		}
		r.rep.attempt(err == nil)
		if err != nil {
			c.c.Close()
			srv.stop()
			return nil, nil, 0, fmt.Errorf("loading: %w", err)
		}
		loadS += t1.Sub(t0).Seconds()
	}
	return srv, c, loadS, nil
}

// request sends one request of a connection: a cached streaming probe
// of the hot pair (slots 0-7 of a query cycle), a partitioned
// aggregation (slot 8), or, with slot reload, the connection's n-th
// reload of its churn pair with a fresh seed followed by its first
// (cache-missing) probe.
func (r *serveRun) request(c *client, conn, slot, n int, traced bool) error {
	type step struct {
		kind, line string
		want       map[string]uint64
	}
	churn := fmt.Sprintf("churn%d", conn)
	var steps []step
	switch {
	case slot == reload:
		seed := r.o.seed*1_000_003 + int64(conn)*100_003 + int64(n)
		steps = []step{
			{"pair", pairLine(churn, churnBuild, churnProbe, seed), map[string]uint64{"matches": churnBuild, "keysum": r.churnSum}},
			{"churn", "query pair=" + churn + " fanout=1", map[string]uint64{"rows": churnBuild, "keysum": r.churnSum}},
		}
	case slot < 8:
		steps = []step{{"hot", "query pair=hot fanout=1", map[string]uint64{"rows": hotBuild, "keysum": r.hotSum}}}
	default:
		steps = []step{{"agg", "query pair=agg fanout=8 agg=1", map[string]uint64{"rows": aggBuild, "keysum": r.aggSum}}}
	}
	for _, st := range steps {
		kv, t0, t1, err := c.do(st.line)
		if err == nil {
			err = expect(kv, st.want)
		}
		s := sample{kind: st.kind, start: t0, end: t1, traced: traced}
		if err == nil && st.kind != "pair" {
			el, e1 := strconv.ParseFloat(kv["elapsed_us"], 64)
			qw, e2 := strconv.ParseFloat(kv["queue_wait_us"], 64)
			if err = errors.Join(e1, e2); err == nil {
				s.serverMS, s.queueMS = el/1e3, qw/1e3
			}
		}
		if traced && r.tr != nil {
			id := r.tr.add(0, "hjserve."+st.kind, t0, t1)
			r.tr.attr(id, "server_ms", s.serverMS)
			r.tr.attr(id, "queue_wait_ms", s.queueMS)
		}
		r.mu.Lock()
		r.rep.attempt(err == nil)
		if err == nil {
			r.samples = append(r.samples, s)
		}
		r.mu.Unlock()
		var re *replyError
		if errors.As(err, &re) {
			fmt.Fprintf(os.Stderr, "perfbench: conn %d: %v\n", conn, err)
		} else if err != nil {
			return err // the connection is broken
		}
	}
	return nil
}

// drive runs the closed loop on every connection for d. Each connection
// reloads its churn pair whenever a reload falls due on the clock, and
// otherwise sends its query cycle. With traced set, every other request
// is recorded as a span. It fails only if a connection breaks.
func (r *serveRun) drive(clients []*client, d time.Duration, traced bool) error {
	start := time.Now()
	deadline := start.Add(d)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			// The connections' reloads fall due an even share of the
			// interval apart, and each query cycle goes in a seeded
			// random order. In a fixed order the two loops lock into one
			// phase per run: a reload, which waits for the other
			// connection's query in flight, then waits about as long
			// every time in that run and differently in the next run.
			due := start.Add(time.Duration(i+1) * reloadEvery / conns)
			rng := rand.New(rand.NewSource(r.o.seed*7919 + int64(i)))
			var order []int
			for k, q := 0, 0; time.Now().Before(deadline); k++ {
				slot := reload
				if time.Now().Before(due) {
					if q%cycle == 0 {
						order = rng.Perm(cycle)
					}
					slot = order[q%cycle]
					q++
				} else {
					due = due.Add(reloadEvery)
					r.reloads[i]++
				}
				if errs[i] = r.request(c, i, slot, r.reloads[i], traced && k%2 == 0); errs[i] != nil {
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runServe(o options, tr *tracer) (*report, error) {
	if o.hjserve == "" {
		return nil, errors.New("serve_mix needs --hjserve")
	}
	r := &serveRun{
		o: o, tr: tr, rep: newReport(o.units),
		hotSum: serveKeySum(hotBuild), aggSum: serveKeySum(aggBuild), churnSum: serveKeySum(churnBuild),
		spillDir: filepath.Join(o.scratch, "spill"),
	}
	if err := os.MkdirAll(r.spillDir, 0o755); err != nil {
		return nil, err
	}
	var setups, loads []float64
	var srv *hjserve
	var loader *client
	for start := time.Now(); moreSetups(len(setups), start); {
		if srv != nil {
			loader.c.Close()
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping hjserve: %w", err)
			}
		}
		t := time.Now()
		var loadS float64
		var err error
		srv, loader, loadS, err = r.bootAndLoad()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		loads = append(loads, loadS)
	}
	defer srv.stop()
	defer loader.c.Close()

	clients := make([]*client, conns)
	for i := range clients {
		c, err := dial(srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.c.Close()
		clients[i] = c
	}
	// Warm-up, untimed: the same mix fills the build cache and brings
	// the server's heap to its steady size.
	if err := r.drive(clients, warmup, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.samples = nil
	rssBefore, err := statusMiB(srv.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return nil, err
	}

	start := time.Now()
	if err := r.drive(clients, o.seconds, tr != nil); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()

	stats, _, _, err := loader.do("stats")
	r.rep.attempt(err == nil)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	peak, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rssAfter, err := statusMiB(srv.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return nil, err
	}

	var hot, queries, pairs, server, queue, overhead []float64
	var hotTraced, hotPlain []float64
	for _, s := range r.samples {
		switch s.kind {
		case "pair":
			pairs = append(pairs, s.ms())
			continue
		case "hot":
			hot = append(hot, s.ms())
			if s.traced {
				hotTraced = append(hotTraced, s.ms())
			} else {
				hotPlain = append(hotPlain, s.ms())
			}
		}
		queries = append(queries, s.ms())
		server = append(server, s.serverMS)
		queue = append(queue, s.queueMS)
		overhead = append(overhead, s.ms()-s.serverMS-s.queueMS)
	}

	rep := r.rep
	if tr == nil {
		rep.set("setup_s", median(setups), len(setups))
		rep.set("group_mtps", mtps(hotProbe, hot), len(hot))
		rep.set("query_ms_p50", median(queries), len(queries))
		rep.set("load_ms_p50", median(pairs), len(pairs))
		rep.set("qps", rate(len(r.samples), wall), len(r.samples))
		rep.set("peak_rss_mb", peak, 1)
		return rep, nil
	}

	counter := func(k string) float64 {
		v, err := strconv.ParseFloat(stats[k], 64)
		if err != nil {
			rep.attempt(false)
			fmt.Fprintf(os.Stderr, "perfbench: stats has no %s\n", k)
		}
		return v
	}
	hits, misses := counter("build_cache_hits"), counter("build_cache_misses")
	rep.set("hjserve.cache_hits", hits, 1)
	rep.set("hjserve.cache_misses", misses, 1)
	rep.set("hjserve.cache_hit_ratio", ratio(hits, hits+misses), 1)
	rep.set("sched.shed", counter("shed"), 1)
	q50, _ := quantile(queue, 0.5)
	q99, _ := quantile(queue, 0.99)
	rep.set("sched.queue_wait_ms_p50", q50, len(queue))
	rep.set("sched.queue_wait_ms_p99", q99, len(queue))
	rep.set("hjserve.server_ms_p50", median(server), len(server))
	rep.set("hjserve.overhead_ms_p50", median(overhead), len(overhead))
	p99, beyond := quantile(queries, 0.99)
	rep.set("query_ms_p99", p99, len(queries))
	fmt.Printf("query_ms_p99 has %d of %d samples beyond it\n", beyond, len(queries))
	rep.set("workload.generate_s", median(loads), len(loads))
	rep.set("hjserve.rss_mb_per_reload", ratio(rssAfter-rssBefore, float64(len(pairs))), len(pairs))
	rep.set("trace.overhead_ratio", ratio(median(hotPlain), median(hotTraced)), len(hotTraced))
	rep.set("failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	return rep, nil
}
