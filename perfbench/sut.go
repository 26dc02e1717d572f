package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/richnote/richnote/internal/cluster"
	"github.com/richnote/richnote/internal/media"
	"github.com/richnote/richnote/internal/ml/forest"
	"github.com/richnote/richnote/internal/network"
	"github.com/richnote/richnote/internal/server"
	"github.com/richnote/richnote/internal/survey"
	"github.com/richnote/richnote/internal/trace"
	"github.com/richnote/richnote/internal/transport"
	"github.com/richnote/richnote/internal/utility"
)

// sut is the system under test: one standalone server, or a router over
// two nodes, behind an in-process loopback HTTP listener.
type sut struct {
	spec  *spec
	cfg   server.Config // standalone config, or the node template
	dir   string        // WAL directory (shared by the nodes)
	front *front
	hs    *http.Server
	ln    net.Listener
	base  string

	srv    *server.Server // standalone
	router *server.Router // cluster
	nodes  []*node        // cluster

	// ticks counts rounds driven so far, warm-up included.
	ticks int
}

type node struct {
	name string
	srv  *server.Server
	ts   *transport.Server
	addr string
}

func serverConfig(s *spec, seed int64, scorer utility.ContentScorer, dir string) server.Config {
	m := network.AlwaysCellMatrix()
	cfg := server.Config{
		Shards: s.shards,
		// Rounds advance only on POST /v1/tick: no self-ticks.
		RoundEvery: 0,
		// Set rather than left to the defaults: θ, the items' CreatedAt
		// and the layer probes use the same two values.
		VirtualRound: virtualRound,
		Epoch:        epoch,
		// Far above one batch per shard, so the closed loop never meets
		// the high-water mark (a 429 costs a one-second Retry-After).
		IngestBuffer:     4096,
		RecentDeliveries: s.feedCap,
		Scorer:           scorer,
		Seed:             seed,
		Faults:           s.faults,
		Default: server.UserConfig{
			WeeklyBudgetBytes: s.weeklyBudgetBytes,
			NetworkMatrix:     &m,
			StartState:        network.StateCell,
			MaxAttempts:       s.maxAttempts,
			DegradeOnFailure:  s.degradeOnFailure,
		},
		WALDir:        dir,
		WALFsync:      walSync,
		SnapshotEvery: s.snapshotEvery,
	}
	if s.cluster {
		cfg.OwnedShards = []int{} // the router assigns shards at start
	}
	return cfg
}

// setup boots the deployment and its HTTP front. It does not warm up.
func setup(s *spec, seed int64, scorer utility.ContentScorer, dir string, tr *tracer) (*sut, error) {
	e := &sut{spec: s, dir: dir, cfg: serverConfig(s, seed, scorer, dir), front: &front{tr: tr}}
	if !s.cluster {
		srv, err := server.New(e.cfg)
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		e.srv = srv
		e.front.h.Store(srv.Handler())
	} else {
		var peers []cluster.Node
		for _, name := range []string{"a", "b"} {
			nd, err := startNode(name, e.cfg, "127.0.0.1:0", nil, tr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.nodes = append(e.nodes, nd)
			peers = append(peers, cluster.Node{Name: name, Addr: nd.addr})
		}
		r, err := server.NewRouter(server.RouterConfig{
			Shards: s.shards,
			Peers:  peers,
			// Probing would add background traffic; nothing here dies
			// unannounced, so the benchmark never needs it.
			ProbeInterval: time.Hour,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		if err := r.Start(); err != nil {
			e.close()
			return nil, err
		}
		e.router = r
		e.front.h.Store(r.Handler())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.ln = ln
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.front}
	go func() { _ = e.hs.Serve(ln) }() // returns ErrServerClosed on close
	return e, nil
}

// startNode boots one cluster node; adopt lists shards to restore from the
// WAL directory before it serves.
func startNode(name string, cfg server.Config, addr string, adopt []int, tr *tracer) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	srv.SetRole("node")
	for _, id := range adopt {
		if err := srv.AdoptShardFromWAL(id); err != nil {
			srv.CrashStop()
			return nil, err
		}
	}
	n := server.NewNode(name, srv)
	// The transport listener is started here rather than by Node.Serve so
	// the benchmark can time node-side frames; it is the same call.
	ts, err := transport.Listen(addr, frameHandler{n: n, tr: tr})
	if err != nil {
		srv.CrashStop()
		return nil, err
	}
	return &node{name: name, srv: srv, ts: ts, addr: ts.Addr()}, nil
}

// servers returns the processes holding shards.
func (e *sut) servers() []*server.Server {
	if e.srv != nil {
		return []*server.Server{e.srv}
	}
	out := make([]*server.Server, 0, len(e.nodes))
	for _, n := range e.nodes {
		if n.srv != nil { // nil while a crashed node is being rebuilt
			out = append(out, n.srv)
		}
	}
	return out
}

func (e *sut) snapshots() []server.ShardSnapshot {
	var out []server.ShardSnapshot
	for _, s := range e.servers() {
		out = append(out, s.Snapshots()...)
	}
	return out
}

func (e *sut) users() int {
	n := 0
	for _, sn := range e.snapshots() {
		n += sn.Users
	}
	return n
}

// publishDirect hands a set-up publish to the owning server in-process.
func (e *sut) publishDirect(o op) error {
	for _, s := range e.servers() {
		err := s.Publish(o.topic, o.user, o.item)
		if errors.Is(err, server.ErrNotOwner) {
			continue
		}
		return err
	}
	return fmt.Errorf("no server owns user %d", o.user)
}

// tickDirect runs one set-up round on every server in-process.
func (e *sut) tickDirect() error {
	for _, s := range e.servers() {
		if err := s.Tick(context.Background()); err != nil {
			return err
		}
	}
	e.ticks++
	return nil
}

// recovery is what one crash-and-rebuild measured.
type recovery struct {
	seconds []float64 // wall time of each rebuild of identical WAL contents
	cpu     []float64 // process CPU seconds of each rebuild
	bytes   int64     // snapshot plus log bytes the rebuild read
	err     error     // state mismatch between crash and rebuild
}

// The same crashed WAL contents are rebuilt from copies at least
// minRebuilds times and until rebuildBudget has been spent on rebuilding
// (at most maxRebuilds times); the median is reported. Small deployments
// rebuild in milliseconds, so they take more samples.
const (
	minRebuilds   = 5
	maxRebuilds   = 100
	rebuildBudget = 6 * time.Second
)

// crashRecover kills the shards without drain and rebuilds them from the
// WAL: the standalone server through server.New, the cluster's node b
// through AdoptShardFromWAL on a fresh node at the same address. The last
// rebuild serves the rest of the run; its ShardState must equal the state
// read just before the crash.
func (e *sut) crashRecover(workDir string) (recovery, error) {
	ctx := context.Background()
	var rec recovery
	victim := e.servers()[len(e.servers())-1]
	ids := victim.OwnedShardIDs()
	before := make(map[int][]byte, len(ids))
	for _, id := range ids {
		st, err := victim.ShardState(ctx, id)
		if err != nil {
			return rec, err
		}
		before[id] = st
	}
	victim.CrashStop()
	// Drop the crashed process's state, so every rebuild starts from the
	// same live heap.
	if !e.spec.cluster {
		e.srv = nil
		e.front.h.Store(http.NotFoundHandler()) // no request is in flight during the rebuild
	} else {
		if err := e.nodes[1].ts.Close(); err != nil {
			return rec, err
		}
		e.nodes[1].srv = nil
	}
	files, err := shardFiles(e.dir, ids)
	if err != nil {
		return rec, err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return rec, err
		}
		rec.bytes += fi.Size()
		// The crashed log is unsynced (SyncNever): write it back before
		// timing, as the copies are.
		if err := syncFile(f); err != nil {
			return rec, err
		}
	}
	var spent time.Duration
	for i := 0; ; i++ {
		final := i == maxRebuilds-1 || (i >= minRebuilds-1 && spent >= rebuildBudget)
		dir := e.dir
		if !final {
			dir = filepath.Join(workDir, fmt.Sprintf("rebuild%d", i))
			if err := copyFiles(files, dir); err != nil {
				return rec, err
			}
		}
		cfg := e.cfg
		cfg.WALDir = dir
		runtime.GC()
		cpu0 := cpuTime()
		start := time.Now()
		var srv *server.Server
		var nd *node
		if !e.spec.cluster {
			srv, err = server.New(cfg)
			if err == nil {
				err = srv.Start()
			}
		} else {
			addr := "127.0.0.1:0"
			if final {
				addr = e.nodes[1].addr
			}
			nd, err = startNode("b", cfg, addr, ids, e.front.tr)
			if nd != nil {
				srv = nd.srv
			}
		}
		if err != nil {
			return rec, fmt.Errorf("rebuild from WAL: %w", err)
		}
		took := time.Since(start)
		spent += took
		rec.seconds = append(rec.seconds, took.Seconds())
		rec.cpu = append(rec.cpu, (cpuTime() - cpu0).Seconds())
		if !final {
			srv.CrashStop()
			if nd != nil {
				_ = nd.ts.Close() // a throwaway rebuild's listener
			}
			if err := os.RemoveAll(dir); err != nil {
				return rec, err
			}
			continue
		}
		for _, id := range ids {
			st, err := srv.ShardState(ctx, id)
			if err != nil {
				return rec, err
			}
			if string(st) != string(before[id]) {
				rec.err = fmt.Errorf("shard %d: state rebuilt from the WAL differs from the state at the crash (%d vs %d bytes)", id, len(st), len(before[id]))
			}
		}
		if !e.spec.cluster {
			e.srv = srv
			e.front.h.Store(srv.Handler())
		} else {
			e.nodes[1] = nd
			if err := e.awaitNodeUp("b"); err != nil {
				return rec, err
			}
		}
		return rec, nil
	}
}

// awaitNodeUp asks the router for /healthz until it reaches the named node.
// The router's transport client may still pool connections to the crashed
// process; a failed forward would mark the node down until the next probe,
// while a health call only discards them.
func (e *sut) awaitNodeUp(name string) error {
	h := e.router.Handler()
	for i := 0; i < 8; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hr server.RouterHealthResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &hr); err != nil {
			return fmt.Errorf("router healthz: %w", err)
		}
		for _, n := range hr.Nodes {
			if n.Name == name && n.Up {
				return nil
			}
		}
	}
	return fmt.Errorf("router does not reach rebuilt node %s", name)
}

// shardFiles lists the snapshot and log files of the given shards.
func shardFiles(dir string, ids []int) ([]string, error) {
	var out []string
	for _, id := range ids {
		for _, ext := range []string{"snap", "wal"} {
			p := filepath.Join(dir, fmt.Sprintf("shard-%d.%s", id, ext))
			if _, err := os.Stat(p); err == nil {
				out = append(out, p)
			} else if !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	return out, nil
}

func copyFiles(files []string, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		if err := copyFile(f, filepath.Join(dir, filepath.Base(f))); err != nil {
			return err
		}
	}
	return nil
}

func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Written back now, so the rebuild's own fsyncs flush only what the
	// rebuild writes.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sumFiles sums the sizes of the shard files with the given suffix
// (".wal" logs or ".snap" snapshots).
func sumFiles(dir, suffix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, en := range entries {
		if !strings.HasPrefix(en.Name(), "shard-") || !strings.HasSuffix(en.Name(), suffix) {
			continue
		}
		if fi, err := en.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// close stops every goroutine and listener the deployment started.
func (e *sut) close() {
	if e.hs != nil {
		_ = e.hs.Close() // also closes e.ln
	}
	if e.router != nil {
		e.router.Stop()
	}
	for _, n := range e.nodes {
		_ = n.ts.Close()
	}
	for _, s := range e.servers() {
		s.CrashStop()
	}
}

// safeScorer shares one trained forest across shards. utility.ForestScorer
// keeps a feature-row buffer that concurrent ScoreBatch calls (one per
// shard, in parallel within a tick) would share, so each call gets its own.
type safeScorer struct{ f *forest.Forest }

func (s safeScorer) Score(n *trace.Notification) float64 {
	return (&utility.ForestScorer{Forest: s.f}).Score(n)
}

func (s safeScorer) ScoreBatch(ns []*trace.Notification, out []float64) []float64 {
	return (&utility.ForestScorer{Forest: s.f}).ScoreBatch(ns, out)
}

// audioGenerator is the server's default presentation generator, rebuilt
// for the layer probes.
func audioGenerator() (media.Generator, error) {
	return media.NewAudioGenerator(media.AudioConfig{Utility: survey.Equation8})
}

// atomicHandler lets a rebuilt server take over the HTTP front.
type atomicHandler struct{ v atomic.Value }

func (a *atomicHandler) Store(h http.Handler) { a.v.Store(&h) }
func (a *atomicHandler) Load() http.Handler   { return *(a.v.Load().(*http.Handler)) }
