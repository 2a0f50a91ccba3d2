// Package node assembles one serving hybridgc process from a Config: the
// engine (one core.DB, or a shard.Cluster), its garbage collectors, the wire
// server, and — by role — the replication source, the replica applier with
// its consistency-token read gate, the HTAP migrator and the checkpoint
// ticker. cmd/hybridgcd, the chaos harness, the read scale-out figure and the
// examples all build their nodes here, so the wiring they exercise is the
// wiring the daemon runs.
//
// Roles follow from the Config:
//
//   - replica: Replica.Upstream is set. A read-only in-memory engine applies
//     the primary's WAL stream and serves gated reads. When the primary
//     demands a re-bootstrap, the node rebuilds engine, applier and server
//     and serves again on the same address.
//   - primary: Engine.Persistence is set and Shards <= 1. The node serves
//     replication streams, and replica-reported snapshots join its GC
//     horizon.
//   - sharded: Shards > 1, a shard.Cluster with per-shard WALs and GC.
//   - standalone: anything else.
package node

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/htap"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/shard"
	"hybridgc/internal/wire"
)

// Config assembles one node. It composes the component configs; its own
// leaf values are the settings hybridgcd exposes as flags.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Engine configures the engine, or every shard's engine when Shards > 1.
	// A replica opens it read-only and in memory, ignoring Persistence.
	Engine core.Config
	// Shards > 1 serves a shard.Cluster of that width.
	Shards int
	// Server tunes the wire server; the node sets its Repl, StatsHook and
	// ReadGate.
	Server server.Config
	// Source tunes the replication source of a primary.
	Source repl.SourceConfig
	// Replica, when Upstream is set, makes the node a replica of it.
	Replica repl.ReplicaConfig
	// HTAP, when set, runs the row→column migrator on a writable node.
	HTAP *htap.Config
	// CheckpointEvery checkpoints a persistent engine periodically
	// (0 disables).
	CheckpointEvery time.Duration
	// TokenWait is how long a replica read carrying a consistency token
	// waits for the applier before bouncing (<=0 selects 150ms).
	TokenWait time.Duration
}

const (
	defaultTokenWait = 150 * time.Millisecond
	// rebootstrapDrain bounds the drain of a replica's server before its
	// engine is rebuilt.
	rebootstrapDrain = 5 * time.Second
)

// errClosed ends a re-bootstrap that lost the race with Close.
var errClosed = errors.New("node: closed")

// Node is one running node.
type Node struct {
	cfg Config

	eng engine.Engine // writable roles
	src *repl.Source
	hm  *htap.Manager

	stopCkpt chan struct{}
	ckptDone chan struct{}
	repDone  chan struct{}
	failed   chan error

	// mu guards what a replica re-bootstrap swaps. Writable roles set these
	// once in Start.
	mu           sync.RWMutex
	addr         string
	db           *core.DB
	rep          *repl.Replica
	srv          *server.Server
	served       chan struct{}
	closed       bool
	rebootstraps int64

	closeOnce sync.Once
	final     wire.Stats
}

// Start opens the engine, starts its collectors and serves it on cfg.Addr.
// A replica returns before its bootstrap completes.
func Start(cfg Config) (*Node, error) {
	if cfg.TokenWait <= 0 {
		cfg.TokenWait = defaultTokenWait
	}
	n := &Node{cfg: cfg, failed: make(chan error, 1)}
	var err error
	if cfg.Replica.Upstream != "" {
		err = n.startReplica()
	} else {
		err = n.startWritable()
	}
	if err != nil {
		n.Close(0)
		return nil, err
	}
	return n, nil
}

func (n *Node) startWritable() error {
	cfg := n.cfg
	var checkpoint func() error
	if cfg.Shards > 1 {
		cl, err := shard.Open(shard.Config{
			Shards:    cfg.Shards,
			Configure: func(int) core.Config { return cfg.Engine },
		})
		if err != nil {
			return err
		}
		n.eng, checkpoint = cl, cl.Checkpoint
	} else {
		db, err := core.Open(cfg.Engine)
		if err != nil {
			return err
		}
		n.eng, checkpoint = engine.NewSingle(db), db.Checkpoint
	}
	n.db = n.eng.Shard(0)
	for i := 0; i < n.eng.Shards(); i++ {
		n.eng.Shard(i).GC().Start()
	}

	scfg := cfg.Server
	if cfg.Engine.Persistence != nil && cfg.Shards <= 1 {
		src, err := repl.NewSource(n.db, cfg.Source)
		if err != nil {
			return err
		}
		n.src = src
		scfg.Repl, scfg.StatsHook = src, src.PopulateStats
	}
	srv, err := server.NewEngine(n.eng, scfg)
	if err != nil {
		return err
	}
	if cfg.HTAP != nil {
		if n.hm, err = htap.NewManager(n.eng, *cfg.HTAP); err != nil {
			return err
		}
		srv.Catalog().AttachHTAP(n.hm)
		n.hm.Start()
	}
	if err := n.serve(srv, cfg.Addr); err != nil {
		return err
	}
	if cfg.CheckpointEvery > 0 && cfg.Engine.Persistence != nil {
		n.startCheckpoints(checkpoint)
	}
	return nil
}

func (n *Node) startReplica() error {
	if n.cfg.Shards > 1 {
		return errors.New("node: replicas are single-node; Shards > 1 is incompatible with a replica upstream")
	}
	if err := n.openReplica(n.cfg.Addr); err != nil {
		return err
	}
	n.repDone = make(chan struct{})
	go n.runReplica()
	return nil
}

// openReplica builds a fresh read-only engine, its applier and its gated
// server on addr, and installs them. The caller holds mu or owns n alone.
func (n *Node) openReplica(addr string) error {
	ecfg := n.cfg.Engine
	ecfg.ReadOnly, ecfg.Persistence = true, nil
	db, err := core.Open(ecfg)
	if err != nil {
		return err
	}
	db.GC().Start()
	rep, err := repl.NewReplica(db, n.cfg.Replica)
	if err != nil {
		db.Close()
		return err
	}
	scfg := n.cfg.Server
	scfg.StatsHook, scfg.ReadGate = rep.PopulateStats, rep.ReadGate(n.cfg.TokenWait)
	srv, err := server.New(db, scfg)
	if err != nil {
		db.Close()
		return err
	}
	if err := n.serve(srv, addr); err != nil {
		db.Close()
		return err
	}
	n.db, n.rep = db, rep
	return nil
}

// runReplica applies the stream until Close, rebuilding the replica
// whenever the primary requires a re-bootstrap (demotion, pruned segments,
// a stale checkpoint).
func (n *Node) runReplica() {
	defer close(n.repDone)
	n.mu.RLock()
	rep := n.rep
	n.mu.RUnlock()
	for {
		err := rep.Run()
		if err == nil {
			return // stopped by Close
		}
		log.Printf("re-bootstrapping: %v", err)
		if rep, err = n.rebootstrap(); err != nil {
			if !errors.Is(err, errClosed) {
				n.fail(err)
			}
			return
		}
	}
}

// rebootstrap drains the replica's server, discards its engine and opens a
// fresh one on the same address. The swap waits for WithDB callers.
func (n *Node) rebootstrap() (*repl.Replica, error) {
	n.mu.RLock()
	srv, served := n.srv, n.served
	n.mu.RUnlock()
	srv.Shutdown(rebootstrapDrain)
	<-served

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errClosed
	}
	n.db.Close()
	n.rebootstraps++
	if err := n.openReplica(n.addr); err != nil {
		return nil, err
	}
	return n.rep, nil
}

// serve listens on addr and runs srv there until Shutdown. Any other end of
// Serve fails the node.
func (n *Node) serve(srv *server.Server, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(ln); err != nil {
			n.fail(err)
		}
	}()
	n.srv, n.served, n.addr = srv, served, ln.Addr().String()
	return nil
}

func (n *Node) startCheckpoints(checkpoint func() error) {
	n.stopCkpt, n.ckptDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(n.ckptDone)
		t := time.NewTicker(n.cfg.CheckpointEvery)
		defer t.Stop()
		for {
			select {
			case <-n.stopCkpt:
				return
			case <-t.C:
				if err := checkpoint(); err != nil {
					log.Printf("checkpoint: %v", err)
				}
			}
		}
	}()
}

func (n *Node) fail(err error) {
	select {
	case n.failed <- err:
	default:
	}
}

// Failed delivers the error that stopped the node serving on its own: the
// listener failed, or a replica could not be rebuilt.
func (n *Node) Failed() <-chan error { return n.failed }

// Addr returns the bound listen address. A replica keeps it across
// re-bootstraps.
func (n *Node) Addr() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.addr
}

// Engine returns a writable node's engine (nil on a replica).
func (n *Node) Engine() engine.Engine { return n.eng }

// DB returns a writable node's shard-0 engine. On a replica it is the engine
// current at the call; use WithDB to hold it across a re-bootstrap.
func (n *Node) DB() *core.DB {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.db
}

// Source returns a primary's replication source (nil on other roles).
func (n *Node) Source() *repl.Source { return n.src }

// WithDB runs fn with the current engine and, on a replica, its applier (nil
// otherwise), held stable: no re-bootstrap closes them while fn runs. fn
// must not call Close.
func (n *Node) WithDB(fn func(db *core.DB, rep *repl.Replica)) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	fn(n.db, n.rep)
}

// Rebootstraps counts a replica's re-bootstraps.
func (n *Node) Rebootstraps() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.rebootstraps
}

// Close shuts the node down in a fixed order — checkpoint ticker, server
// drain (waiting up to drain for in-flight requests), replica applier, HTAP
// migrator, replication source, engine — and returns the server's STATS
// taken after the drain. Safe to call more than once.
func (n *Node) Close(drain time.Duration) wire.Stats {
	n.closeOnce.Do(func() {
		if n.stopCkpt != nil {
			close(n.stopCkpt)
			<-n.ckptDone
		}
		n.mu.Lock()
		n.closed = true
		srv, served, rep := n.srv, n.served, n.rep
		n.mu.Unlock()
		if srv != nil {
			srv.Shutdown(drain)
			<-served
		}
		if rep != nil {
			rep.Stop()
			<-n.repDone
		}
		if srv != nil {
			n.final = srv.Stats()
		}
		if n.hm != nil {
			n.hm.Stop()
		}
		if n.src != nil {
			n.src.Close()
		}
		if n.eng != nil {
			n.eng.Close()
		} else if n.db != nil {
			n.db.Close()
		}
	})
	return n.final
}
