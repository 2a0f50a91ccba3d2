// Replication quickstart: a primary/replica pair in one process, and the
// cluster-wide GC horizon in action. A persistent primary serves writes and
// streams its WAL to a read-only replica; a long-lived cursor opened on the
// REPLICA pins garbage collection on the PRIMARY — the replica reports its
// oldest open snapshot upstream, where it joins the snapshot-timestamp
// registry every collector consults. Closing the cursor releases the pin
// and reclamation catches up. The demo finishes with a graceful drain on
// both sides.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/wal"
)

func main() {
	// The primary: persistent (WAL + checkpoints — replication is WAL
	// shipping), all collectors on a fast schedule.
	dir, err := os.MkdirTemp("", "hgc-repl-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	primary, err := node.Start(node.Config{
		Addr: "127.0.0.1:0",
		Engine: core.Config{
			GC:                 gc.Periods{GT: 10 * time.Millisecond, TG: 20 * time.Millisecond, SI: 50 * time.Millisecond},
			LongLivedThreshold: 20 * time.Millisecond,
			Persistence:        &core.Persistence{Dir: dir},
		},
		Source: repl.SourceConfig{HeartbeatEvery: 20 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	pdb := primary.DB()
	fmt.Printf("primary listening on %s (data in %s)\n", primary.Addr(), dir)

	// Seed some data before the replica exists — it will arrive there via
	// the bootstrap checkpoint rather than the live tail.
	pcl, err := client.Dial(client.Config{Addr: primary.Addr()})
	if err != nil {
		log.Fatal(err)
	}
	defer pcl.Close()
	exec := func(stmt string) {
		if _, err := pcl.Exec(stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}
	exec("CREATE TABLE accounts (id INT, balance INT)")
	for i := 1; i <= 20; i++ {
		exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d)", i, i*100))
	}

	// The replica: an empty read-only engine that bootstraps from the
	// primary's checkpoint, tails its WAL, and serves ordinary clients.
	replica, err := node.Start(node.Config{
		Addr: "127.0.0.1:0",
		Replica: repl.ReplicaConfig{
			Upstream:    primary.Addr(),
			ReplicaID:   "r1",
			ReportEvery: 20 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	replica.WithDB(func(_ *core.DB, rep *repl.Replica) {
		if err := rep.WaitLSN(pdb.WAL().NextLSN(), 5*time.Second); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replica on %s caught up at LSN %s\n", replica.Addr(), rep.AppliedLSN())
	})

	// Read the replicated rows through the replica's own server.
	rcl, err := client.Dial(client.Config{Addr: replica.Addr()})
	if err != nil {
		log.Fatal(err)
	}
	defer rcl.Close()
	res, err := rcl.Exec("SELECT id, balance FROM accounts")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica serves %d replicated rows (writes there fail read-only)\n", len(res.Rows))

	// The paper's blocker, cluster-wide: a long-lived cursor on the REPLICA.
	// Its snapshot is reported upstream and pins the PRIMARY's GC horizon.
	cur, err := rcl.Query("SELECT id, balance FROM accounts")
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // a couple of report intervals
	fmt.Printf("replica cursor open at snapshot %d; primary horizon now %d\n",
		cur.SnapshotTS(), pdb.Manager().GlobalHorizon())

	// OLTP churn on the primary while the remote snapshot is open.
	for i := 1; i <= 300; i++ {
		exec(fmt.Sprintf("UPDATE accounts SET balance = %d WHERE id = 1", i))
	}
	time.Sleep(100 * time.Millisecond)
	st, err := pcl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under the remote pin: versions live=%d reclaimed=%d, horizon=%d (pin %d)\n",
		st.VersionsLive, st.VersionsReclaimed, st.GlobalHorizon, cur.SnapshotTS())

	// Release the replica-side snapshot; the pin clears within a report
	// interval and the primary's horizon advances.
	if err := cur.Close(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	fmt.Printf("cursor closed; primary horizon advanced to %d\n", pdb.Manager().GlobalHorizon())

	// Drain both sides: the stream ends with a drain notice, pins release.
	st = replica.Close(2 * time.Second)
	primary.Close(2 * time.Second)
	fmt.Printf("drained; replica applied %s of the primary's WAL\n", wal.LSN(st.ReplAppliedLSN))
}
