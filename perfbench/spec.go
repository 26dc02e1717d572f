package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/richnote/richnote/internal/ml/forest"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/notif"
	"github.com/richnote/richnote/internal/pubsub"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/utility"
	"github.com/richnote/richnote/internal/wal"
)

// spec is one workload: the deployment it boots and the traffic it sends.
type spec struct {
	name string
	// cluster boots a router and two nodes instead of one server.
	cluster bool
	shards  int
	users   int
	// batch is the number of publishes per round, split evenly between
	// the two connections and then the shards that have users; sample is the number of recipients whose
	// delivery feeds are read once per round and checked in full.
	batch  int
	sample int
	// slots lists each user's fixed topics, with the share of publishes
	// each receives; the topic entity comes from entity(user, slot).
	slots  []slot
	entity func(u notif.UserID, slot int) int64
	// forest selects the random-forest content scorer trained at set-up;
	// otherwise the server's default constant scorer is used.
	forest            bool
	weeklyBudgetBytes int64
	faults            network.FaultConfig
	maxAttempts       int
	degradeOnFailure  bool
	snapshotEvery     int
	// feedCap is RecentDeliveries: above any user's deliveries in one
	// round, so a read after every round sees each delivery, and small
	// enough that every feed is full early in the run, after which the
	// feeds stop adding to the heap.
	feedCap int
	// crashTick is the round count (warm-up included) at which the service
	// is crashed without drain and rebuilt from its WAL: a few rounds past a
	// compaction, so every run replays the same snapshot and log tail.
	crashTick int
}

type slot struct {
	kind  notif.TopicKind
	share float64
}

// kindMix is the paper's feed-frequency skew: friend feeds dominate.
var kindMix = []slot{
	{notif.TopicFriendFeed, 0.7},
	{notif.TopicArtistPage, 0.2},
	{notif.TopicPlaylist, 0.1},
}

var workloads = map[string]*spec{
	// Every recipient shares one topic entity per kind, so each publish is
	// copied to every subscriber of its topic in the shard and filtered at
	// flush: internal/pubsub dominates CPU, heap and WAL replay.
	"hot_topics": {
		name:              "hot_topics",
		shards:            2,
		users:             2000,
		batch:             400,
		sample:            16,
		slots:             kindMix,
		entity:            func(notif.UserID, int) int64 { return 1 },
		weeklyBudgetBytes: 1 << 30,
		snapshotEvery:     16,
		feedCap:           16,
		crashTick:         70,
	},
	// Per-sender topics (fan-out 1), several items per user per round,
	// forest-scored content, a binding 20 MB/week plan and seeded transfer
	// faults: round work (scoring, enrichment, MCKP, Lyapunov, delivery)
	// dominates and pubsub fan-out is bypassed.
	"scored_budget": {
		name:   "scored_budget",
		shards: 2,
		users:  600,
		batch:  1800,
		sample: 16,
		slots: []slot{
			{notif.TopicFriendFeed, 0.175}, {notif.TopicFriendFeed, 0.175},
			{notif.TopicFriendFeed, 0.175}, {notif.TopicFriendFeed, 0.175},
			{notif.TopicArtistPage, 0.2}, {notif.TopicPlaylist, 0.1},
		},
		entity:            func(u notif.UserID, slot int) int64 { return int64(u)*6 + int64(slot) + 1 },
		forest:            true,
		weeklyBudgetBytes: 20 << 20,
		faults:            network.FaultConfig{CellLoss: 0.05, CellDisconnect: 0.05},
		maxAttempts:       3,
		degradeOnFailure:  true,
		snapshotEvery:     16,
		feedCap:           64,
		crashTick:         84,
	},
	// A router and two nodes, four shards, moderate fan-out (64 topic
	// entities per kind) and feed reads interleaved with publishes: every
	// request pays the router hop and a transport exchange.
	"cluster_mixed": {
		name:              "cluster_mixed",
		cluster:           true,
		shards:            4,
		users:             2000,
		batch:             400,
		sample:            32,
		slots:             kindMix,
		entity:            func(u notif.UserID, _ int) int64 { return int64(u%64) + 1 },
		weeklyBudgetBytes: 1 << 30,
		snapshotEvery:     32,
		feedCap:           16,
		crashTick:         104,
	},
}

// walSync is the WAL fsync policy of every workload: the log is flushed
// to the OS every round but never fsynced. An fsync per round put the
// shared disk's latency into every tick; with it, hot_topics' throughput
// and tick p90 spread by 0.29 and 0.59 of their medians over ten runs of
// the same code, while its CPU per publish held.
const walSync = wal.SyncNever

const (
	conns = 2 // keep-alive client connections, one per core of the reference box
	// idStride separates the item-ID ranges of consecutive rounds.
	idStride = 1 << 20
	// cadenceDrain is the longest topic cadence (playlists drain every
	// fourth round): that many publish-free ticks flush every buffer.
	cadenceDrain = 4
)

var epoch = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

const virtualRound = time.Hour

// op is one client operation of a round.
type op struct {
	read  bool
	user  notif.UserID
	topic pubsub.TopicID
	item  notif.Item
}

// traffic generates the seeded inputs: the fixed user and topic
// populations, the sampled recipients and every round's operations.
type traffic struct {
	spec   *spec
	seed   int64
	pool   []notif.Item // content templates; ID, recipient and time are stamped per publish
	halves [conns][]notif.UserID
	// byShard[c][sh] lists connection c's users on shard sh.
	byShard   [conns][][]notif.UserID
	sampled   [conns][]notif.UserID
	isSampled map[notif.UserID]bool
}

// newTraffic fixes the populations; shardOf is the service's user ring.
func newTraffic(s *spec, seed int64, pool []notif.Item, shardOf func(notif.UserID) int) *traffic {
	t := &traffic{spec: s, seed: seed, pool: pool, isSampled: make(map[notif.UserID]bool)}
	for c := range t.byShard {
		t.byShard[c] = make([][]notif.UserID, s.shards)
	}
	for u := 1; u <= s.users; u++ {
		c, user := (u-1)%conns, notif.UserID(u)
		t.halves[c] = append(t.halves[c], user)
		sh := shardOf(user)
		t.byShard[c][sh] = append(t.byShard[c][sh], user)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for c := range t.halves {
		perm := rng.Perm(len(t.halves[c]))
		for _, i := range perm[:s.sample/conns] {
			u := t.halves[c][i]
			t.sampled[c] = append(t.sampled[c], u)
			t.isSampled[u] = true
		}
	}
	return t
}

func (t *traffic) topic(u notif.UserID, slot int) pubsub.TopicID {
	return pubsub.TopicID{Kind: t.spec.slots[slot].kind, Entity: t.spec.entity(u, slot)}
}

// item stamps a pool template into publish number i of global round g.
func (t *traffic) item(rng *rand.Rand, g, i int, topic pubsub.TopicID, u notif.UserID) notif.Item {
	it := t.pool[rng.Intn(len(t.pool))]
	it.ID = notif.ItemID(g*idStride + i + 1)
	it.Topic = topic.Kind
	it.Recipient = u
	if topic.Kind == notif.TopicFriendFeed {
		it.Sender = notif.UserID(topic.Entity)
	}
	it.CreatedAt = epoch.Add(time.Duration(g) * virtualRound)
	return it
}

// round returns connection c's operations for global round g: its half of
// the batch's publishes, each to a recipient drawn from its own half of the
// users, with one feed read of each of its sampled users spread evenly
// through them. Publishes take the shards in turn and every shard gets
// exactly the workload's topic-kind shares, so each shard's work and
// buffered state per round are the same size whatever the seed.
func (t *traffic) round(g, c int) []op {
	rng := rand.New(rand.NewSource(t.seed*1_000_003 + int64(g)*7919 + int64(c)))
	per := t.spec.batch / conns
	// The user ring can leave a shard without users: take the shards that
	// have some, in order.
	var active [][]notif.UserID
	for _, users := range t.byShard[c] {
		if len(users) > 0 {
			active = append(active, users)
		}
	}
	reads := t.sampled[c]
	ops := make([]op, 0, per+len(reads))
	every := per / (len(reads) + 1)
	next := 0
	slots := make([][]int, len(active))
	for k := range slots {
		n := per / len(active)
		if k < per%len(active) {
			n++
		}
		slots[k] = t.slotMix(n)
		rng.Shuffle(n, func(i, j int) { slots[k][i], slots[k][j] = slots[k][j], slots[k][i] })
	}
	for i := 0; i < per; i++ {
		if next < len(reads) && i == (next+1)*every {
			ops = append(ops, op{read: true, user: reads[next]})
			next++
		}
		k := i % len(active)
		u := active[k][rng.Intn(len(active[k]))]
		topic := t.topic(u, slots[k][i/len(active)])
		ops = append(ops, op{user: u, topic: topic, item: t.item(rng, g, c*per+i, topic, u)})
	}
	for ; next < len(reads); next++ {
		ops = append(ops, op{read: true, user: reads[next]})
	}
	return ops
}

// slotMix returns n slot indices in exactly the workload's shares
// (largest remainders round), so every round carries the same number of
// publishes per topic kind and the broker buffers left pending at a given
// round are the same size on every run.
func (t *traffic) slotMix(n int) []int {
	type rem struct {
		slot int
		frac float64
	}
	out := make([]int, 0, n)
	var rems []rem
	for sl, x := range t.spec.slots {
		want := x.share * float64(n)
		k := int(want)
		for i := 0; i < k; i++ {
			out = append(out, sl)
		}
		rems = append(rems, rem{sl, want - float64(k)})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rems[i%len(rems)].slot)
	}
	return out
}

// warmup returns the set-up publishes: one per (user, topic slot), so every
// subscription exists before timing starts, in rounds of at most one batch.
func (t *traffic) warmup() [][]op {
	rng := rand.New(rand.NewSource(t.seed ^ 0x3a3a))
	var rounds [][]op
	var cur []op
	for u := 1; u <= t.spec.users; u++ {
		for sl := range t.spec.slots {
			if len(cur) == t.spec.batch {
				rounds = append(rounds, cur)
				cur = nil
			}
			user := notif.UserID(u)
			topic := t.topic(user, sl)
			cur = append(cur, op{user: user, topic: topic, item: t.item(rng, len(rounds), len(cur), topic, user)})
		}
	}
	return append(rounds, cur)
}

// syntheticPool draws audio items with plausible popularity and tie
// strength, as richnote-load does.
func syntheticPool(seed int64, n int) []notif.Item {
	rng := rand.New(rand.NewSource(seed ^ 0x9001))
	pool := make([]notif.Item, n)
	for i := range pool {
		pool[i] = notif.Item{
			Kind: notif.KindAudio,
			Meta: notif.Metadata{
				TrackID:          int64(i + 1),
				AlbumID:          int64(i/8 + 1),
				ArtistID:         int64(i/32 + 1),
				TrackPopularity:  1 + rng.Float64()*99,
				AlbumPopularity:  1 + rng.Float64()*99,
				ArtistPopularity: 1 + rng.Float64()*99,
				Genre:            rng.Intn(12),
			},
			TieStrength: rng.Float64(),
		}
	}
	return pool
}

// modelSeed fixes the trace the content scorer is trained on: the model
// is part of the deployment, the same for every run, while --seed decides
// which of its items are published to whom.
const modelSeed = 20150101

// tracePool generates the internal/trace workload, trains the content
// scorer on it and returns the scorer with the trace's items as the
// publish pool.
func tracePool() (*utility.ForestScorer, []notif.Item, error) {
	const seed = modelSeed
	gen, err := trace.NewGenerator(trace.Config{Users: 80, Rounds: 36, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("trace generator: %w", err)
	}
	tr, err := gen.Generate()
	if err != nil {
		return nil, nil, fmt.Errorf("generate trace: %w", err)
	}
	fs, err := utility.TrainForestScorer(tr, forest.Config{Trees: 30, MaxDepth: 10, Seed: seed, Workers: 2})
	if err != nil {
		return nil, nil, err
	}
	var pool []notif.Item
	for _, ut := range tr.Users {
		for _, n := range ut.Notifications {
			pool = append(pool, n.Item)
		}
	}
	return fs, pool, nil
}
