package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/core"
	"github.com/richnote/richnote/internal/energy"
	"github.com/richnote/richnote/internal/lyapunov"
	"github.com/richnote/richnote/internal/metrics"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/sched"
	"github.com/richnote/richnote/internal/server"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/utility"
	"github.com/richnote/richnote/internal/wal"
)

// layerObs collects per-tick readings of the program's snapshots and WAL
// files during a traced run.
type layerObs struct {
	slowestMs   []float64
	skew        []float64
	delivPerTik []float64
	walPerPub   []float64
	delivered   int
	walSize     int64
	ticks       int
}

func (o *layerObs) tick(env *sut, s *spec, pubs int) {
	snaps := env.snapshots()
	var slowest, sum time.Duration
	delivered := 0
	for _, sn := range snaps {
		if sn.LastRound > slowest {
			slowest = sn.LastRound
		}
		sum += sn.LastRound
		delivered += sn.Report.Delivered
	}
	if o.ticks > 0 {
		o.slowestMs = append(o.slowestMs, float64(slowest)/1e6)
		if sum > 0 {
			o.skew = append(o.skew, float64(slowest)*float64(len(snaps))/float64(sum))
		}
		o.delivPerTik = append(o.delivPerTik, float64(delivered-o.delivered))
	}
	size := sumFiles(env.dir, ".wal")
	// A compaction truncates the log; growth is read only between
	// compactions.
	if o.ticks > 0 && env.ticks%s.snapshotEvery != 0 && size > o.walSize && pubs > 0 {
		o.walPerPub = append(o.walPerPub, float64(size-o.walSize)/float64(pubs))
	}
	o.walSize = size
	o.delivered = delivered
	o.ticks++
}

// layerRun derives the per-layer metrics of a traced run: from the spans,
// from the readings above, and from probes that time the benchmark's own
// calls into each layer's exported API with this workload's inputs.
type layerRun struct {
	env        *sut
	spec       *spec
	seed       int64
	traffic    *traffic
	scorer     utility.ContentScorer
	tr         *tracer
	clients    []*client
	ph         phase
	compaction []float64
	obs        layerObs
	rec        recovery
	gcCycles   uint32
	ticks      []float64 // untraced tick latencies, ms
	setupWall  []float64 // wall seconds of each set-up
}

// probeRounds is how many rounds of this workload's inputs each probe
// replays.
const probeRounds = 12

func (l *layerRun) report(res *result) error {
	s := l.spec
	byName := make(map[string][]float64)
	for _, sp := range l.tr.spans {
		byName[sp.name] = append(byName[sp.name], float64(sp.end-sp.start)/1e3)
	}
	// Wall-clock figures, from the untraced rounds. These follow
	// the host's steal too closely to carry a bound (see run), so they are
	// reported here rather than as end-to-end metrics.
	pub0 := clientPubs(l.clients, 0)
	res.set("wall.publish_eps", "1/s", float64(l.ph.accepted[0])/l.ph.wall[0].Seconds())
	res.set("wall.publish_p50_ms", "ms", quantile(pub0, 0.50))
	res.set("wall.publish_p90_ms", "ms", quantile(pub0, 0.90))
	res.set("wall.tick_p50_ms", "ms", quantile(l.ticks, 0.50))
	res.set("wall.tick_p90_ms", "ms", quantile(l.ticks, 0.90))
	res.set("wall.setup_s", "s", median(l.setupWall))
	res.set("wall.rebuild_s", "s", median(l.rec.seconds))

	res.set("front.publish_us", "us", median(byName[spanFrontPublish]))
	res.set("front.read_us", "us", median(byName[spanFrontRead]))
	res.set("front.tick_ms", "ms", median(byName[spanFrontTick])/1e3)
	decode, err := l.decodeProbe()
	if err != nil {
		return err
	}
	res.set("front.decode_us", "us", decode)

	res.set("round.slowest_shard_ms", "ms", median(l.obs.slowestMs))
	res.set("round.shard_skew", "ratio", median(l.obs.skew))
	res.set("round.compaction_tick_ms", "ms", median(l.compaction))
	res.set("round.deliveries_per_tick", "count", mean(l.obs.delivPerTik))
	var bp uint64
	for _, srv := range l.env.servers() {
		bp += srv.Backpressured()
	}
	res.set("shard.backpressured", "count", float64(bp))

	copies, pubNs, flushMs, err := l.pubsubProbe()
	if err != nil {
		return err
	}
	res.set("pubsub.copies_per_publish", "ratio", copies)
	res.set("pubsub.publish_ns", "ns", pubNs)
	res.set("pubsub.flush_ms", "ms", flushMs)

	scoreUs, enrichUs, err := l.utilityProbe()
	if err != nil {
		return err
	}
	res.set("utility.score_batch_us", "us", scoreUs)
	res.set("utility.enrich_us", "us", enrichUs)

	planUs, roundUs, err := l.schedProbe()
	if err != nil {
		return err
	}
	res.set("sched.plan_us", "us", planUs)
	res.set("sched.device_round_us", "us", roundUs)

	perPub := median(l.obs.walPerPub)
	res.set("wal.bytes_per_publish", "B", perPub)
	commitMs, err := l.walProbe(perPub)
	if err != nil {
		return err
	}
	res.set("wal.commit_ms", "ms", commitMs)
	users := l.env.users()
	res.set("snapshot.bytes_per_user", "B", float64(sumFiles(l.env.dir, ".snap"))/float64(users))
	stateMs, err := l.stateProbe()
	if err != nil {
		return err
	}
	res.set("snapshot.state_ms", "ms", stateMs)
	res.set("recovery.replay_mb_per_s", "MB/s", float64(l.rec.bytes)/1e6/median(l.rec.seconds))

	pingUs, fwdUs, reconnects, err := l.transportProbe()
	if err != nil {
		return err
	}
	res.set("transport.ping_us", "us", pingUs)
	res.set("router.forward_us", "us", fwdUs)
	res.set("transport.reconnects", "count", reconnects)

	accepted := l.ph.accepted[0] + l.ph.accepted[1]
	res.set("gc.cycles_per_kpublish", "count", float64(l.gcCycles)/(float64(accepted)/1000))

	// Tracing overhead: traced rounds against the untraced rounds they
	// alternate with, on the same deployment.
	res.set("trace.overhead_publish_p50_us", "us", (median(clientPubs(l.clients, 1))-median(pub0))*1e3)
	cpu := func(t int) float64 { return float64(l.ph.cpu[t].Microseconds()) / float64(l.ph.accepted[t]) }
	res.set("trace.overhead_cpu_pct", "%", (cpu(1)/cpu(0)-1)*100)

	for _, st := range l.tr.selfTimes() {
		fmt.Printf("span %-15s count=%-7d mean_us=%-10.1f self_us=%.1f\n", st.name, st.count, st.meanUs, st.selfUs)
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", s.name, l.seed))
	if err := l.tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s (%d spans)\n", path, len(l.tr.spans))
	return nil
}

// probeOps returns the publishes of probe round i, past the run's end.
func (l *layerRun) probeOps(i int) []op {
	var out []op
	for c := 0; c < conns; c++ {
		for _, o := range l.traffic.round(l.env.ticks+1000+i, c) {
			if !o.read {
				out = append(out, o)
			}
		}
	}
	return out
}

// decodeProbe times the front's JSON decode of this workload's publish
// bodies on its own, as the handler does it.
func (l *layerRun) decodeProbe() (float64, error) {
	var per []float64
	for i := 0; i < probeRounds; i++ {
		for _, o := range l.probeOps(i) {
			body, err := publishBody(o)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			var got server.PublishRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&got)
			per = append(per, float64(time.Since(start))/1e3)
			if err != nil {
				return 0, err
			}
		}
	}
	return median(per), nil
}

// cadence mirrors the server's topic cadences: friend feeds drain every
// round, artist pages every second, playlists every fourth.
func cadence(k notif.TopicKind) int {
	switch k {
	case notif.TopicArtistPage:
		return 2
	case notif.TopicPlaylist:
		return 4
	}
	return 1
}

// pubsubProbe replays the workload's (topic, recipient) stream into one
// fresh broker per shard holding the same cadence subscriptions, with the
// server's recipient filter as handler. It returns the fan-out copies per
// publish, the mean publish cost and the median flush time per round.
func (l *layerRun) pubsubProbe() (copies, pubNs, flushMs float64, err error) {
	ring := l.env.servers()[0]
	brokers := make([]*pubsub.Broker, l.spec.shards)
	for i := range brokers {
		brokers[i] = pubsub.NewBroker()
	}
	kept := 0
	for u := 1; u <= l.spec.users; u++ {
		user := notif.UserID(u)
		b := brokers[ring.ShardFor(user)]
		for sl := range l.spec.slots {
			topic := l.traffic.topic(user, sl)
			err := b.SubscribeCadence(user, topic, pubsub.ModeRound, cadence(topic.Kind), func(items []notif.Item) {
				for _, it := range items {
					if it.Recipient == user {
						kept++
					}
				}
			})
			if err != nil {
				return 0, 0, 0, err
			}
		}
	}
	pending := func() int {
		n := 0
		for _, b := range brokers {
			n += b.PendingRound()
		}
		return n
	}
	var grown, published int
	var pubTime time.Duration
	var flushes []float64
	for i := 0; i < probeRounds; i++ {
		ops := l.probeOps(i)
		target := make([]*pubsub.Broker, len(ops))
		for j, o := range ops {
			target[j] = brokers[ring.ShardFor(o.user)]
		}
		before := pending()
		start := time.Now()
		for j, o := range ops {
			target[j].Publish(o.topic, o.item)
		}
		pubTime += time.Since(start)
		grown += pending() - before
		published += len(ops)
		start = time.Now()
		for _, b := range brokers {
			b.EndRoundIndex(i)
		}
		flushes = append(flushes, float64(time.Since(start))/1e6)
	}
	if kept == 0 {
		return 0, 0, 0, fmt.Errorf("pubsub probe: no publication reached its recipient")
	}
	return float64(grown) / float64(published), float64(pubTime) / float64(published), median(flushes), nil
}

// shardBatches splits a probe round's publishes by shard, as trace
// notifications the way a shard stages them.
func (l *layerRun) shardBatches(i int) [][]*trace.Notification {
	ring := l.env.servers()[0]
	out := make([][]*trace.Notification, l.spec.shards)
	for _, o := range l.probeOps(i) {
		sh := ring.ShardFor(o.user)
		out[sh] = append(out[sh], &trace.Notification{Item: o.item, Round: i})
	}
	return out
}

// utilityProbe times content scoring of one shard's round batch (the batch
// path when the scorer has one, as the server does) and enrichment per
// item.
func (l *layerRun) utilityProbe() (scoreUs, enrichUs float64, err error) {
	gen, err := audioGenerator()
	if err != nil {
		return 0, 0, err
	}
	enr, err := utility.NewEnricher(l.scorer, gen)
	if err != nil {
		return 0, 0, err
	}
	var scores, enrich []float64
	var out []float64
	for i := 0; i < probeRounds; i++ {
		for _, ns := range l.shardBatches(i) {
			if len(ns) == 0 {
				continue
			}
			start := time.Now()
			if bs, ok := l.scorer.(utility.BatchScorer); ok {
				out = bs.ScoreBatch(ns, out[:0])
			} else {
				out = out[:0]
				for _, n := range ns {
					out = append(out, l.scorer.Score(n))
				}
			}
			scores = append(scores, float64(time.Since(start))/1e3)
			start = time.Now()
			for k, n := range ns {
				if _, err := enr.EnrichScored(n, out[k]); err != nil {
					return 0, 0, err
				}
			}
			enrich = append(enrich, float64(time.Since(start))/1e3/float64(len(ns)))
		}
	}
	return median(scores), median(enrich), nil
}

// timedPlan is RichNote with every Plan call timed. A device that holds it
// plans as a shard's device does: against its own queue, Lyapunov
// controller and data budget.
type timedPlan struct {
	sched.RichNote
	us []float64
}

func (t *timedPlan) Plan(queue []sched.Queued, ctx *sched.PlanContext) []sched.Selection {
	start := time.Now()
	sels := t.RichNote.Plan(queue, ctx)
	t.us = append(t.us, float64(time.Since(start))/1e3)
	return sels
}

// schedProbe runs the sampled recipients' rounds on devices built the way
// the server's shard.addUser builds them (same seeds, battery, fault model
// and controller), timing Device.RunRound on every round and, within it,
// each RichNote.Plan call the device makes.
func (l *layerRun) schedProbe() (planUs, roundUs float64, err error) {
	s := l.spec
	gen, err := audioGenerator()
	if err != nil {
		return 0, 0, err
	}
	enr, err := utility.NewEnricher(l.scorer, gen)
	if err != nil {
		return 0, 0, err
	}
	plan := &timedPlan{}
	devs := make(map[notif.UserID]*sched.Device)
	for u := range l.traffic.isSampled {
		seed := l.seed ^ (int64(u+1) * 0x9e3779b9)
		nm, err := network.NewModelSeeded(network.AlwaysCellMatrix(), network.StateCell, seed)
		if err != nil {
			return 0, 0, err
		}
		bat, err := energy.NewBattery(energy.BatteryConfig{}, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return 0, 0, err
		}
		var faults *network.FaultModel
		if s.faults.Enabled() {
			if faults, err = network.NewFaultModelSeeded(s.faults, seed+2); err != nil {
				return 0, 0, err
			}
		}
		ctl, err := lyapunov.New(lyapunov.Config{V: core.DefaultV, Kappa: core.DefaultKappaJ})
		if err != nil {
			return 0, 0, err
		}
		d, err := sched.NewDevice(sched.DeviceConfig{
			User: u, Strategy: plan, WeeklyBudgetBytes: s.weeklyBudgetBytes,
			RoundsPerWeek: roundsPerWeek, Epoch: epoch, RoundLen: virtualRound,
			Network: nm, Capacity: network.DefaultCapacity(), Battery: bat, Transfer: energy.DefaultTransferModel(),
			Controller: ctl, Collector: metrics.NewCollector(), Faults: faults,
			MaxAttempts: s.maxAttempts, DegradeOnFailure: s.degradeOnFailure,
		})
		if err != nil {
			return 0, 0, err
		}
		devs[u] = d
	}
	var rounds []float64
	for i := 0; i < 2*probeRounds; i++ {
		arrivals := make(map[notif.UserID][]sched.Queued)
		for _, o := range l.probeOps(i) {
			if _, ok := devs[o.user]; !ok {
				continue
			}
			n := trace.Notification{Item: o.item, Round: i}
			rich, err := enr.Enrich(&n)
			if err != nil {
				return 0, 0, err
			}
			arrivals[o.user] = append(arrivals[o.user], sched.Queued{Rich: rich})
		}
		for u, d := range devs {
			if q := arrivals[u]; len(q) > 0 {
				if err := d.Enqueue(q); err != nil {
					return 0, 0, err
				}
			}
			start := time.Now()
			if _, err := d.RunRound(i); err != nil {
				return 0, 0, err
			}
			rounds = append(rounds, float64(time.Since(start))/1e3)
		}
	}
	if len(plan.us) == 0 {
		return 0, 0, fmt.Errorf("sched probe: no device planned a round")
	}
	return mean(plan.us), mean(rounds), nil
}

// walProbe appends each shard's round of publish-sized records, as many as
// the workload's publishes to that shard, to a log of the shard's own next
// to the shards' logs, with the workload's sync policy, and times each
// round commit.
func (l *layerRun) walProbe(bytesPerPub float64) (ms float64, err error) {
	ring := l.env.servers()[0]
	logs := make([]*wal.Writer, l.spec.shards)
	defer func() {
		for _, w := range logs {
			if w == nil {
				continue
			}
			if cerr := w.Close(); err == nil {
				err = cerr
			}
		}
	}()
	for sh := range logs {
		path := filepath.Join(l.env.dir, fmt.Sprintf("probe-%d.wal", sh))
		w, err := wal.OpenWriter(path, 0, 0, walSync)
		if err != nil {
			return 0, err
		}
		logs[sh] = w
	}
	payload := make([]byte, max(int(bytesPerPub), 1))
	var commits []float64
	for i := 0; i < 2*probeRounds; i++ {
		perShard := make([]int, l.spec.shards)
		for _, o := range l.probeOps(i) {
			perShard[ring.ShardFor(o.user)]++
		}
		for sh, n := range perShard {
			if n == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if _, err := logs[sh].Append(1, payload); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			if err := logs[sh].Commit(); err != nil {
				return 0, err
			}
			commits = append(commits, float64(time.Since(start))/1e6)
		}
	}
	return median(commits), nil
}

// stateProbe times Server.ShardState, the canonical state export, on every
// shard.
func (l *layerRun) stateProbe() (float64, error) {
	var per []float64
	for _, srv := range l.env.servers() {
		for _, id := range srv.OwnedShardIDs() {
			for k := 0; k < 3; k++ {
				start := time.Now()
				if _, err := srv.ShardState(context.Background(), id); err != nil {
					return 0, err
				}
				per = append(per, float64(time.Since(start))/1e6)
			}
		}
	}
	return median(per), nil
}

// transportProbe measures a transport ping round trip, the router's mean
// publish forward and its reconnect count. The cluster reads the router's
// own /metrics for the run; a standalone server is wrapped in a one-node
// router for a probe of sampled publishes.
func (l *layerRun) transportProbe() (pingUs, fwdUs, reconnects float64, err error) {
	addr := ""
	var metricsText string
	if l.env.router != nil {
		addr = l.env.nodes[0].addr
		resp, err := http.Get(l.env.base + "/metrics")
		if err != nil {
			return 0, 0, 0, err
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, 0, err
		}
		metricsText = buf.String()
	} else {
		nd := server.NewNode("probe", l.env.srv)
		ts, err := transport.Listen("127.0.0.1:0", nd)
		if err != nil {
			return 0, 0, 0, err
		}
		defer ts.Close()
		addr = ts.Addr()
		r, err := server.NewRouter(server.RouterConfig{
			Shards: l.spec.shards, Peers: []cluster.Node{{Name: "probe", Addr: addr}}, ProbeInterval: time.Hour,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if err := r.Start(); err != nil {
			return 0, 0, 0, err
		}
		defer r.Stop()
		h := r.Handler()
		for i := 0; i < probeRounds; i++ {
			for k, o := range l.probeOps(i) {
				if k%10 != 0 {
					continue
				}
				body, err := publishBody(o)
				if err != nil {
					return 0, 0, 0, err
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/publish", bytes.NewReader(body)))
				if rr.Code != http.StatusAccepted {
					return 0, 0, 0, fmt.Errorf("probe publish via router: status %d: %s", rr.Code, rr.Body.String())
				}
			}
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		metricsText = rr.Body.String()
	}
	c := transport.NewClient(addr, transport.ClientConfig{})
	defer c.Close()
	var pings []float64
	for i := 0; i < 500; i++ {
		start := time.Now()
		if _, _, err := c.Call(server.FramePing, nil); err != nil {
			return 0, 0, 0, err
		}
		pings = append(pings, float64(time.Since(start))/1e3)
	}
	sum := promValue(metricsText, "richnote_router_forward_latency_seconds_sum")
	count := promValue(metricsText, "richnote_router_forward_latency_seconds_count")
	if count == 0 {
		return 0, 0, 0, fmt.Errorf("router forwarded no publishes")
	}
	return median(pings), sum / count * 1e6, promValue(metricsText, "richnote_router_reconnects_total"), nil
}

// promValue sums every sample of a metric in Prometheus text exposition.
func promValue(text, name string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(rest)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
