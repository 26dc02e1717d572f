package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/server"
	"github.com/richnote/richnote/internal/utility"
)

// A run builds the deployment at least minSetups times and until
// setupBudget has been spent building (at most maxSetups times); the median
// set-up time is reported and the last instance serves the load. Small
// deployments build in a fraction of a second, so they take more samples.
const (
	minSetups   = 3
	maxSetups   = 12
	setupBudget = 2 * time.Second
)

// client is one keep-alive connection of the closed loop. It owns half of
// the recipients and their ledger.
type client struct {
	idx  int
	hc   *http.Client
	tp   *http.Transport
	base string
	tr   *tracer
	led  *ledger

	// Latencies in ms of the current phase, split by whether the round
	// was traced (index 1) or not (index 0).
	pub, read [2][]float64
	rejected  int
	reads     uint64
	err       error
}

func newClient(idx int, base string, tr *tracer, led *ledger) *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{idx: idx, hc: &http.Client{Transport: tp, Timeout: time.Minute}, tp: tp, base: base, tr: tr, led: led}
}

// do sends one request and reads the whole response; it returns the status,
// the body and the latency in ms.
func (c *client) do(method, path string, body []byte, traceID uint64, spanName string) (int, []byte, float64, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if traceID != 0 {
		req.Header.Set(traceHeader, strconv.FormatUint(traceID, 10))
	}
	var spanStart int64
	if traceID != 0 {
		spanStart = c.tr.now()
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start)) / 1e6
	if traceID != 0 {
		c.tr.add(span{trace: traceID, id: 1, name: spanName, start: spanStart, end: c.tr.now()})
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: read response: %w", method, path, err)
	}
	return resp.StatusCode, data, ms, nil
}

// runOps sends one round's operations in order. completed is the number of
// rounds the service has run.
func (c *client) runOps(ops []op, completed int, traced bool) {
	t := 0
	if traced {
		t = 1
	}
	for _, o := range ops {
		if o.read {
			var id uint64
			if traced {
				c.reads++
				id = tickTraceBase + uint64(c.idx+1)<<40 + c.reads
			}
			ms, err := c.readFeed(o.user, completed, id)
			if err != nil {
				c.err = err
				return
			}
			c.read[t] = append(c.read[t], ms)
			continue
		}
		body, err := publishBody(o)
		if err != nil {
			c.err = err
			return
		}
		var id uint64
		if traced {
			id = uint64(o.item.ID)
		}
		status, data, ms, err := c.do(http.MethodPost, "/v1/publish", body, id, spanClientPublish)
		if err != nil {
			c.err = err
			return
		}
		switch status {
		case http.StatusAccepted:
			c.led.accept(o)
			c.pub[t] = append(c.pub[t], ms)
		case http.StatusTooManyRequests:
			c.rejected++
		default:
			c.err = fmt.Errorf("publish to user %d: status %d: %s", o.user, status, data)
			return
		}
	}
}

// publishBody is the POST /v1/publish body of one publish operation.
func publishBody(o op) ([]byte, error) {
	var req server.PublishRequest
	req.Topic.Kind = o.topic.Kind.String()
	req.Topic.Entity = o.topic.Entity
	req.Recipients = []notif.UserID{o.user}
	req.Item = o.item
	return json.Marshal(&req)
}

func (c *client) readFeed(u notif.UserID, completed int, traceID uint64) (float64, error) {
	status, data, ms, err := c.do(http.MethodGet, fmt.Sprintf("/v1/users/%d/deliveries", u), nil, traceID, spanClientRead)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("read feed of user %d: status %d: %s", u, status, data)
	}
	var dr server.DeliveriesResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		return 0, fmt.Errorf("read feed of user %d: %w", u, err)
	}
	c.led.observe(u, dr.Deliveries, completed)
	return ms, nil
}

func (c *client) tick(traceID uint64) (float64, error) {
	if traceID != 0 {
		c.tr.tickTrace.Store(traceID)
	}
	status, data, ms, err := c.do(http.MethodPost, "/v1/tick", nil, traceID, spanClientTick)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("tick: status %d: %s", status, data)
	}
	return ms, nil
}

// window accumulates the untraced rounds between two compactions
// (snapshotEvery rounds, compaction round last). CPU per publish and per
// tick and the throughput are taken per full window and the median window
// is reported: every window does the same work, one compaction included,
// so a stall of the shared host spoils one window rather than the run.
type window struct {
	rounds   int
	wall     time.Duration
	cpu      time.Duration
	tickCPU  time.Duration // process CPU while the tick request ran
	accepted int
	// stat0 and stat1 are the host's CPU counters at the window's first
	// and last round: the steal share is printed beside the figures.
	stat0, stat1 cpuStat
}

// phase accumulates the load phase's totals, split by traced/untraced round.
type phase struct {
	wall     [2]time.Duration
	cpu      [2]time.Duration
	accepted [2]int
}

// fullWindows returns the windows of snapshotEvery rounds in time order;
// the partial window at the start of the load phase is dropped.
func fullWindows(windows map[int]*window, snapshotEvery int) []*window {
	keys := make([]int, 0, len(windows))
	for k, w := range windows {
		if w.rounds == snapshotEvery {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	out := make([]*window, len(keys))
	for i, k := range keys {
		out[i] = windows[k]
	}
	return out
}

// clientPubs gathers the publish latencies of traced (1) or untraced (0)
// rounds from every client.
func clientPubs(clients []*client, t int) []float64 {
	var out []float64
	for _, c := range clients {
		out = append(out, c.pub[t]...)
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// build makes one deployment and warms it up: every (user, topic)
// subscription is created by in-process publishes before timing starts.
func build(s *spec, seed int64, dir string, tr *tracer) (*sut, *traffic, utility.ContentScorer, [conns]*ledger, error) {
	var leds [conns]*ledger
	var scorer utility.ContentScorer
	var pool []notif.Item
	if s.forest {
		fs, p, err := tracePool()
		if err != nil {
			return nil, nil, nil, leds, err
		}
		scorer, pool = safeScorer{fs.Forest}, p
	} else {
		pool = syntheticPool(seed, 4096)
	}
	env, err := setup(s, seed, scorer, dir, tr)
	if err != nil {
		return nil, nil, nil, leds, err
	}
	tf := newTraffic(s, seed, pool, env.servers()[0].ShardFor)
	for c := range leds {
		leds[c] = newLedger(tf.sampled[c], s.feedCap)
	}
	for _, batch := range tf.warmup() {
		for _, o := range batch {
			if err := env.publishDirect(o); err != nil {
				env.close()
				return nil, nil, nil, leds, fmt.Errorf("warm-up publish: %w", err)
			}
			leds[(int(o.user)-1)%conns].accept(o)
		}
		if err := env.tickDirect(); err != nil {
			env.close()
			return nil, nil, nil, leds, fmt.Errorf("warm-up tick: %w", err)
		}
	}
	if scorer == nil {
		scorer = utility.ConstantScorer{Value: 0.5} // the server's default
	}
	return env, tf, scorer, leds, nil
}

func run(s *spec, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{Correct: true}
	res.fail(selfTest(io.Discard))
	workDir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-seed%d-pid%d", s.name, seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var (
		env        *sut
		tf         *traffic
		scorer     utility.ContentScorer
		leds       [conns]*ledger
		setupTimes []float64 // wall seconds
		setupCPU   []float64 // CPU seconds
	)
	var spent time.Duration
	for i := 0; ; i++ {
		final := i == maxSetups-1 || (i >= minSetups-1 && spent >= setupBudget)
		dir := filepath.Join(workDir, fmt.Sprintf("wal%d", i))
		runtime.GC() // the previous build's garbage is not this build's work
		cpu0 := cpuTime()
		start := time.Now()
		e, t, sc, l, err := build(s, seed, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		setupTimes = append(setupTimes, took.Seconds())
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		if !final {
			e.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		env, tf, scorer, leds = e, t, sc, l
		break
	}
	// env is set to nil once the deployment's heap has been measured.
	defer func() {
		if env != nil {
			env.close()
		}
	}()

	clients := make([]*client, conns)
	for c := range clients {
		clients[c] = newClient(c, env.base, tr, leds[c])
		defer clients[c].tp.CloseIdleConnections()
	}

	var (
		ph         phase
		windows    = make(map[int]*window)
		ticks      [2][]float64 // tick latency, ms
		compaction []float64
		obs        layerObs
		rec        recovery
		loadRounds int
		gcPause    uint32
	)
	gc0 := numGC()
	host0 := readCPUStat()
	limit := time.Duration(seconds) * time.Second
	for {
		g := env.ticks
		t := 0
		if traced && loadRounds%2 == 1 {
			t = 1
		}
		var ops [conns][]op
		for c := range ops {
			ops[c] = tf.round(g, c)
		}
		if tr != nil {
			tr.on.Store(t == 1)
		}
		before := 0
		for _, c := range clients {
			before += len(c.pub[t])
		}
		st0 := readCPUStat()
		cpu0 := cpuTime()
		start := time.Now()
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				clients[c].runOps(ops[c], g, t == 1)
			}(c)
		}
		wg.Wait()
		for _, c := range clients {
			if c.err != nil {
				return nil, c.err
			}
		}
		var tickID uint64
		if t == 1 {
			tickID = tickTraceBase + uint64(g)
		}
		tickCPU0 := cpuTime()
		ms, err := clients[0].tick(tickID)
		if err != nil {
			return nil, err
		}
		wall, cpuEnd := time.Since(start), cpuTime()
		cpu := cpuEnd - cpu0
		ph.wall[t] += wall
		ph.cpu[t] += cpu
		if tr != nil {
			tr.on.Store(false)
		}
		env.ticks++
		after := 0
		for _, c := range clients {
			after += len(c.pub[t])
		}
		ph.accepted[t] += after - before
		ticks[t] = append(ticks[t], ms)
		if t == 0 {
			w := windows[g/s.snapshotEvery]
			if w == nil {
				w = &window{}
				windows[g/s.snapshotEvery] = w
			}
			if w.rounds == 0 {
				w.stat0 = st0
			}
			w.stat1 = readCPUStat()
			w.rounds++
			w.wall += wall
			w.cpu += cpu
			w.tickCPU += cpuEnd - tickCPU0
			w.accepted += after - before
		}
		if env.ticks%s.snapshotEvery == 0 {
			compaction = append(compaction, ms)
		}
		if traced {
			obs.tick(env, s, after-before)
		}
		loadRounds++
		if env.ticks == s.crashTick {
			gcBefore := numGC()
			rec, err = env.crashRecover(workDir)
			if err != nil {
				return nil, fmt.Errorf("crash recovery: %w", err)
			}
			gcPause += numGC() - gcBefore
		}
		// Stop right after a compaction (snapshotEvery is a multiple of the
		// longest cadence), so every run ends with the same broker buffers
		// pending and the same log tail, and every window is full.
		if ph.wall[0]+ph.wall[1] >= limit && env.ticks > s.crashTick && env.ticks%s.snapshotEvery == 0 {
			break
		}
	}
	gcCycles := numGC() - gc0 - gcPause
	res.stealPct = 100 * host0.stealShare(readCPUStat())
	var queued, pending, deliveredAtEnd int
	for _, sn := range env.snapshots() {
		queued += sn.QueueDepth
		pending += sn.BrokerPending
		deliveredAtEnd += sn.Report.Delivered
	}
	fmt.Printf("end of load: rounds=%d queued=%d broker_pending=%d delivered=%d\n", env.ticks, queued, pending, deliveredAtEnd)
	heapWith := liveHeap()

	// Drain: publish-free ticks for the longest topic cadence, then one
	// last read of every sampled feed.
	for i := 0; i < cadenceDrain; i++ {
		if _, err := clients[0].tick(0); err != nil {
			return nil, err
		}
		env.ticks++
	}
	for c, cl := range clients {
		for _, u := range tf.sampled[c] {
			if _, err := cl.readFeed(u, env.ticks, 0); err != nil {
				return nil, err
			}
		}
	}

	// Output checks, against the generator's own records.
	snaps := env.snapshots()
	accepted := 0
	sent := make(map[notif.UserID]map[notif.ItemID]bool)
	history := make(map[notif.UserID][]notif.Delivery)
	for _, l := range leds {
		accepted += l.accepted
		res.fail(l.err)
		for u, v := range l.sent {
			sent[u] = v
			history[u] = l.history[u]
		}
	}
	res.fail(checkConservation(accepted, snaps))
	res.fail(checkRounds(snaps, s.shards, env.ticks))
	theta := float64(s.weeklyBudgetBytes) / float64(roundsPerWeek)
	res.fail(checkHistories(sent, history, theta, env.ticks, s.faults == (network.FaultConfig{})))
	res.fail(rec.err)

	// Every round is batch/conns publishes and sample/conns reads per
	// connection plus one tick.
	res.Attempted = loadRounds * (s.batch + s.sample + 1)
	for _, c := range clients {
		res.Failed += c.rejected
	}
	if ph.accepted[0] == 0 {
		return nil, fmt.Errorf("no publish accepted in untraced rounds")
	}

	if !traced {
		var delivered int
		var utilitySum float64
		for _, sn := range snaps {
			delivered += sn.Report.Delivered
			utilitySum += sn.Report.UtilitySum
		}
		var read []float64
		for _, c := range clients {
			read = append(read, c.read[0]...)
		}
		pub := clientPubs(clients, 0)
		var eps, cpu, tickCPU, steal []float64
		for _, w := range fullWindows(windows, s.snapshotEvery) {
			eps = append(eps, float64(w.accepted)/w.wall.Seconds())
			cpu = append(cpu, float64(w.cpu.Microseconds())/float64(w.accepted))
			tickCPU = append(tickCPU, float64(w.tickCPU.Microseconds())/1e3/float64(w.rounds))
			steal = append(steal, 100*w.stat0.stealShare(w.stat1))
		}
		if len(eps) == 0 {
			return nil, fmt.Errorf("load phase too short: no full window of %d rounds", s.snapshotEvery)
		}
		// Only CPU time, memory, utility and the read median are gated.
		// Wall-clock throughput, the publish and tick latencies, set-up and
		// rebuild times follow the host's steal: on the 2-vCPU reference
		// guest, runs of the same code minutes apart, with 1% to 27% of
		// the host's CPU time stolen, spread the throughput by 0.32 of its
		// median. They are printed here and reported, ungated, by the
		// traced run. Set-up, ticks and rebuilds are reported as the
		// process's CPU time instead.
		res.set("setup_s", "s", median(setupCPU))
		res.set("cpu_us_per_publish", "us", median(cpu))
		res.set("round_cpu_ms", "ms", median(tickCPU))
		res.set("read_p50_ms", "ms", quantile(read, 0.50))
		res.set("recovery_cpu_s", "s", median(rec.cpu))
		res.set("utility_per_delivery", "utility", utilitySum/float64(delivered))
		fmt.Printf("windows publish_eps=%.0f cpu_us_per_publish=%.1f round_cpu_ms=%.2f steal_pct=%.1f\n", eps, cpu, tickCPU, steal)
		fmt.Printf("wall publish_eps=%.1f publish_p50_ms=%.4f publish_p90_ms=%.4f tick_p50_ms=%.3f tick_p90_ms=%.3f rebuild_s=%.4f setup_s=%.4f\n",
			median(eps), quantile(pub, 0.50), quantile(pub, 0.90), quantile(ticks[0], 0.50), quantile(ticks[0], 0.90), median(rec.seconds), median(setupTimes))
		fmt.Printf("rebuilds bytes=%d wall_s=%.4f cpu_s=%.4f\n", rec.bytes, rec.seconds, rec.cpu)
		fmt.Printf("setups wall_s=%.4f cpu_s=%.4f\n", setupTimes, setupCPU)
		fmt.Printf("samples reads=%d ticks=%d load_rounds=%d windows=%d accepted_total=%d\n", len(read), len(ticks[0]), loadRounds, len(eps), accepted)
	} else {
		lr := &layerRun{
			env: env, spec: s, seed: seed, traffic: tf, scorer: scorer, tr: tr,
			clients: clients, ph: ph, compaction: compaction, obs: obs, rec: rec,
			gcCycles: gcCycles, ticks: ticks[0], setupWall: setupTimes,
		}
		if err := lr.report(res); err != nil {
			return nil, err
		}
	}

	// The deployment's heap: the live heap at the end of the load phase
	// minus the live heap once the deployment (its scorer included) is
	// closed and dropped. The generator's records (latencies, ledgers,
	// spans, the item pool) are kept live through both readings, so they
	// cancel.
	users := env.users()
	env.close()
	env, scorer = nil, nil
	for _, c := range clients {
		c.tp.CloseIdleConnections()
	}
	heap := heapWith - liveHeap()
	runtime.KeepAlive(tr)
	runtime.KeepAlive(tf)
	runtime.KeepAlive(leds)
	runtime.KeepAlive(clients)
	runtime.KeepAlive(windows)
	runtime.KeepAlive(ticks)
	runtime.KeepAlive(compaction)
	runtime.KeepAlive(obs)
	runtime.KeepAlive(rec)
	runtime.KeepAlive(setupTimes)
	fmt.Printf("deployment heap: %.0f B (%d users)\n", heap, users)
	if traced {
		res.set("heap.bytes_per_user", "B", heap/float64(users))
	} else {
		res.set("retained_heap_mb", "MB", heap/1e6)
	}
	return res, nil
}

// liveHeap is the live heap in bytes after forced GCs.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc)
}

// roundsPerWeek is the server's count of virtual rounds per week.
const roundsPerWeek = int(7 * 24 * time.Hour / virtualRound)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
