// Command hybridgcd serves one hybridgc engine over TCP using the wire
// protocol in internal/wire. Clients (internal/client, cmd/tpcc -addr,
// cmd/gcmon -addr) speak length-prefixed binary frames; each connection gets
// its own SQL session, explicit-transaction scope and query cursors, so a
// remote long-lived cursor pins a snapshot in this process exactly like an
// in-process one — the paper's Figure 2 blocker, observable over the
// network.
//
// With -data the engine is persistent (WAL + checkpoints) and also acts as a
// replication primary: replicas connect with OpReplStream, and their
// reported snapshots join the cluster-wide GC horizon. With -replica-of the
// process is a replica instead: it bootstraps from the primary's checkpoint,
// tails its WAL, and serves read-only snapshot queries; local writes fail
// with ErrReadOnly. A demoted replica (too far behind the primary's segment
// retention) automatically rebuilds itself from a fresh checkpoint.
//
// With -htap the process runs the background row→column migrator: clients
// arm tables with the HTAP-ENABLE verb (client.EnableHTAP), after which
// committed versions older than the GC horizon are shipped into
// dictionary-encoded column chunks and lane-eligible aggregates
// (client.Aggregate, or SELECT SUM(col) /* aggregate */ FROM t) are served
// from columnar batches instead of MVCC row reads.
//
// SIGTERM / SIGINT drain gracefully: the listener closes, in-flight requests
// finish and get their responses, replication streams end with a drain
// notice, and every open cursor is closed so its pinned snapshot stops
// blocking garbage collection before the process exits.
//
// The process itself is assembled by internal/node; this command maps its
// flags onto a node.Config.
//
// Usage:
//
//	hybridgcd -addr :7654 -gc hg
//	hybridgcd -addr :7654 -data /var/lib/hgc -checkpoint-every 30s
//	hybridgcd -addr :7655 -replica-of 127.0.0.1:7654 -replica-id r1
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/node"
	"hybridgc/internal/profiling"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
	"hybridgc/internal/wal"
	"hybridgc/internal/workload"
)

// settings is what the command line selects: the node to assemble, plus the
// GC mode and profiling flags main reports and acts on itself.
type settings struct {
	node node.Config
	gc   workload.Mode
	prof profiling.Flags
}

// parseFlags maps the command line onto a node config. Its errors are usage
// errors: main prints them and exits with status 2.
func parseFlags(args []string) (settings, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7654", "listen address")
		token    = fs.String("token", "", "auth token clients must present in HELLO (empty disables auth)")
		maxConns = fs.Int("maxconns", 256, "maximum concurrent connections")
		idle     = fs.Duration("idle", 2*time.Minute, "per-connection idle timeout (releases cursors of silent peers)")
		mode     = fs.String("gc", "hg", "garbage collection mode: none, gt, gttg, hg")
		soft     = fs.Int64("soft", 0, "version-budget soft watermark (0 disables the budget)")
		hard     = fs.Int64("hard", 0, "version-budget hard watermark (0 derives 2*soft)")
		shards   = fs.Int("shards", 1, "engine shard count; >1 serves a horizontally sharded engine with per-shard WALs, GC and horizons")

		data      = fs.String("data", "", "persistence directory (WAL + checkpoints); enables serving replicas")
		syncWAL   = fs.Bool("sync", false, "fsync the WAL on every commit group")
		ckptEvery = fs.Duration("checkpoint-every", 0, "periodic checkpoint interval (0 disables; requires -data)")

		replicaOf   = fs.String("replica-of", "", "primary address; run as a read-only replica of it")
		replicaID   = fs.String("replica-id", "replica", "stable replica identity reported to the primary")
		upstreamTok = fs.String("upstream-token", "", "auth token for the primary (replica mode)")
		tokenWait   = fs.Duration("token-wait", 150*time.Millisecond, "replica mode: how long a read carrying a consistency token waits for the applier before bouncing with replica-behind")

		replStale = fs.Duration("repl-stale-after", 0, "demote a silent replica after this long; replica: tolerated primary silence (0 selects defaults)")
		replWrite = fs.Duration("repl-write-timeout", 0, "per-write deadline on replication streams (0 selects the default)")

		htapOn    = fs.Bool("htap", false, "run the background row→column migrator; clients arm tables with the HTAP-ENABLE verb")
		htapEvery = fs.Duration("htap-every", 25*time.Millisecond, "migrator pass interval (requires -htap)")
	)
	var s settings
	s.prof.Register(fs)
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits 2 here

	switch strings.ToLower(*mode) {
	case "none":
		s.gc = workload.ModeNone
	case "gt":
		s.gc = workload.ModeGT
	case "gttg", "gt+tg":
		s.gc = workload.ModeGTTG
	case "hg", "hybrid":
		s.gc = workload.ModeHG
	default:
		return s, fmt.Errorf("unknown -gc mode %q", *mode)
	}
	if *shards > 1 && *replicaOf != "" {
		return s, errors.New("hybridgcd: -shards > 1 is incompatible with -replica-of (replicas are single-node)")
	}

	base := gc.Periods{GT: 50 * time.Millisecond, TG: 150 * time.Millisecond, SI: 500 * time.Millisecond}
	s.node = node.Config{
		Addr: *addr,
		Engine: core.Config{
			GC:                 s.gc.Periods(base),
			LongLivedThreshold: 100 * time.Millisecond,
			VersionBudget:      core.VersionBudget{Soft: *soft, Hard: *hard},
		},
		Shards: *shards,
		Server: server.Config{Token: *token, MaxConns: *maxConns, IdleTimeout: *idle},
		Source: repl.SourceConfig{StaleAfter: *replStale, WriteTimeout: *replWrite},
		Replica: repl.ReplicaConfig{
			Upstream:     *replicaOf,
			Token:        *upstreamTok,
			ReplicaID:    *replicaID,
			StallTimeout: *replStale,
			WriteTimeout: *replWrite,
		},
		CheckpointEvery: *ckptEvery,
		TokenWait:       *tokenWait,
	}
	if *data != "" {
		s.node.Engine.Persistence = &core.Persistence{Dir: *data, Sync: *syncWAL}
	}
	if *htapOn {
		s.node.HTAP = &htap.Config{Interval: *htapEvery}
	}
	return s, nil
}

func main() {
	s, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	log.SetFlags(0)
	log.SetPrefix("hybridgcd: ")
	if err := profiling.Start(s.prof); err != nil {
		fatal(err)
	}
	defer profiling.Stop()

	cfg := s.node
	replica := cfg.Replica.Upstream != ""
	if cfg.Shards > 1 && cfg.Engine.Persistence != nil {
		fmt.Println("hybridgcd: sharded engine persists per-shard WALs; serving replicas is single-node only and stays disabled")
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	n, err := node.Start(cfg)
	if err != nil {
		fatal(err)
	}
	if replica {
		fmt.Printf("hybridgcd: listening on %s (role=replica of %s id=%s)\n", n.Addr(), cfg.Replica.Upstream, cfg.Replica.ReplicaID)
	} else {
		role := "standalone"
		switch {
		case cfg.Shards > 1:
			role = fmt.Sprintf("sharded x%d", cfg.Shards)
		case n.Source() != nil:
			role = "primary"
		}
		if cfg.HTAP != nil {
			role += "+htap"
		}
		fmt.Printf("hybridgcd: listening on %s (role=%s gc=%s maxconns=%d)\n", n.Addr(), role, s.gc, cfg.Server.MaxConns)
	}

	select {
	case sg := <-sig:
		fmt.Printf("hybridgcd: %v — draining...\n", sg)
	case err := <-n.Failed():
		n.Close(5 * time.Second)
		fatal(err)
	}
	st := n.Close(5 * time.Second)
	if replica {
		fmt.Printf("hybridgcd: replica applied %s\n", wal.LSN(st.ReplAppliedLSN))
		return
	}
	fmt.Printf("hybridgcd: served %d requests over %d connections (%d errors)\n",
		st.Requests, st.ConnsTotal, st.RequestErrors)
	fmt.Printf("hybridgcd: versions live=%d reclaimed=%d, cursors reaped=%d, latency p50=%s p99=%s\n",
		st.VersionsLive, st.VersionsReclaimed, st.CursorsReaped,
		time.Duration(st.LatP50), time.Duration(st.LatP99))
	if n.Source() != nil {
		fmt.Printf("hybridgcd: replication sent=%d records, demotions=%d, replicas=%d\n",
			st.ReplRecordsSent, st.ReplDemotions, len(st.Replicas))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridgcd:", err)
	profiling.Stop() // flush -cpuprofile/-memprofile even on the error path
	os.Exit(1)
}
