package node

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/repl"
	"hybridgc/internal/wire"
)

// startPair starts a persistent primary and one replica of it, both through
// Start, with the replication source tuned by src.
func startPair(t *testing.T, src repl.SourceConfig, tokenWait time.Duration) (primary, replica *Node) {
	t.Helper()
	src.HeartbeatEvery = 10 * time.Millisecond
	src.StaleAfter = 30 * time.Second
	primary, err := Start(Config{
		Addr:   "127.0.0.1:0",
		Engine: core.Config{Persistence: &core.Persistence{Dir: t.TempDir()}},
		Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close(5 * time.Second) })
	if primary.Source() == nil {
		t.Fatal("persistent unsharded node serves no replication source")
	}
	replica, err = Start(Config{
		Addr: "127.0.0.1:0",
		Replica: repl.ReplicaConfig{
			Upstream:      primary.Addr(),
			ReplicaID:     "r1",
			ReportEvery:   10 * time.Millisecond,
			ReconnectBase: 10 * time.Millisecond,
		},
		TokenWait: tokenWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close(5 * time.Second) })
	return primary, replica
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func exec(t *testing.T, cl *client.Client, stmt string) *client.Result {
	t.Helper()
	res, err := cl.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaStat is the primary's view of the replica stream named id.
func replicaStat(primary *Node, id string) (wire.ReplicaStat, bool) {
	var st wire.Stats
	primary.Source().PopulateStats(&st)
	for _, r := range st.Replicas {
		if r.ID == id {
			return r, true
		}
	}
	return wire.ReplicaStat{}, false
}

// TestReplicaReadGate: a Session read carrying a fresh commit token is
// admitted once the replica's applier covers it, and bounced with the
// transient ErrReplicaBehind while the applier is wedged.
func TestReplicaReadGate(t *testing.T) {
	primary, replica := startPair(t, repl.SourceConfig{}, 50*time.Millisecond)
	pcl, rcl := dial(t, primary.Addr()), dial(t, replica.Addr())
	exec(t, pcl, "CREATE TABLE kv (id INT, v INT)")
	tok := exec(t, pcl, "INSERT INTO kv VALUES (1, 10)").Token
	if tok == 0 {
		t.Fatal("commit on a persistent primary returned no token")
	}

	// The gate waits at most 50ms per read; retry until the bootstrap lands.
	var res *client.Result
	waitFor(t, "the replica to admit the token", func() bool {
		var err error
		res, err = rcl.ExecAt("SELECT v FROM kv WHERE id = 1", tok)
		return err == nil
	})
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("admitted read returned %+v", res.Rows)
	}

	fault.Enable(repl.FPApplyStall, fault.ReturnErr(errors.New("wedged applier")))
	defer fault.Disable(repl.FPApplyStall)
	tok = exec(t, pcl, "INSERT INTO kv VALUES (2, 20)").Token
	_, err := rcl.ExecAt("SELECT v FROM kv WHERE id = 2", tok)
	if !errors.Is(err, core.ErrReplicaBehind) || !core.IsTransient(err) {
		t.Fatalf("read behind a wedged applier: %v, want a transient ErrReplicaBehind", err)
	}
	st, err := rcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadGateBounces == 0 || st.ReplRole != "replica" {
		t.Fatalf("replica STATS: bounces=%d role=%q", st.ReadGateBounces, st.ReplRole)
	}

	fault.Disable(repl.FPApplyStall)
	waitFor(t, "the recovered replica to admit the token", func() bool {
		res, err = rcl.ExecAt("SELECT v FROM kv WHERE id = 2", tok)
		return err == nil
	})
	if len(res.Rows) != 1 || res.Rows[0][0].I != 20 {
		t.Fatalf("read after recovery returned %+v", res.Rows)
	}
}

// TestReplicaPinReachesPrimary: a cursor open on the replica pins the
// primary's GC horizon at its snapshot, and closing the replica node
// releases that pin.
func TestReplicaPinReachesPrimary(t *testing.T) {
	primary, replica := startPair(t, repl.SourceConfig{}, 0)
	pcl, rcl := dial(t, primary.Addr()), dial(t, replica.Addr())
	exec(t, pcl, "CREATE TABLE kv (id INT, v INT)")
	tok := exec(t, pcl, "INSERT INTO kv VALUES (1, 10)").Token

	var cur *client.Cursor
	waitFor(t, "a replica cursor", func() bool {
		var err error
		cur, err = rcl.QueryAt("SELECT v FROM kv", tok)
		return err == nil
	})
	pin := cur.SnapshotTS()
	waitFor(t, "the replica's pin on the primary", func() bool {
		r, ok := replicaStat(primary, "r1")
		return ok && r.PinnedSTS == pin
	})
	for i := 2; i < 5; i++ {
		exec(t, pcl, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
	}
	if h := primary.DB().Manager().GlobalHorizon(); h > pin {
		t.Fatalf("primary horizon %v passed the replica's pinned snapshot %v", h, pin)
	}

	replica.Close(5 * time.Second)
	waitFor(t, "Close to release the pin", func() bool {
		r, _ := replicaStat(primary, "r1")
		return r.PinnedSTS == 0 && primary.DB().Manager().GlobalHorizon() > pin
	})
}

// TestForcedRebootstrap: a replica demoted for lagging more than one
// segment rebuilds itself and serves the primary's rows again on the same
// address.
func TestForcedRebootstrap(t *testing.T) {
	primary, replica := startPair(t, repl.SourceConfig{MaxSegmentLag: 1}, time.Second)
	pcl := dial(t, primary.Addr())
	addr := replica.Addr()
	exec(t, pcl, "CREATE TABLE kv (id INT, v INT)")
	tok := exec(t, pcl, "INSERT INTO kv VALUES (1, 10)").Token
	waitFor(t, "the replica to catch up", func() bool {
		var applied uint64
		replica.WithDB(func(_ *core.DB, rep *repl.Replica) { applied = uint64(rep.AppliedLSN()) })
		return applied >= tok
	})

	// Stall the applier on one shipped record while the primary's log rolls
	// past the lag bound: the primary demotes the replica.
	sourceStats := func() (st wire.Stats) {
		primary.Source().PopulateStats(&st)
		return st
	}
	fault.Enable(repl.FPApplyStall, fault.Sleep(1500*time.Millisecond))
	defer fault.Disable(repl.FPApplyStall)
	sent := sourceStats().ReplRecordsSent
	exec(t, pcl, "INSERT INTO kv VALUES (2, 20)")
	waitFor(t, "the stalling record to ship", func() bool { return sourceStats().ReplRecordsSent > sent })
	for i := 0; i < 3; i++ {
		if _, err := primary.DB().WAL().Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the demotion", func() bool { return sourceStats().ReplDemotions > 0 })
	fault.Disable(repl.FPApplyStall)
	waitFor(t, "the re-bootstrap", func() bool { return replica.Rebootstraps() > 0 })

	tok = exec(t, pcl, "INSERT INTO kv VALUES (3, 30)").Token
	if replica.Addr() != addr {
		t.Fatalf("re-bootstrap moved the replica from %s to %s", addr, replica.Addr())
	}
	rcl := dial(t, addr)
	var res *client.Result
	waitFor(t, "the rebuilt replica to serve", func() bool {
		var err error
		res, err = rcl.ExecAt("SELECT id, v FROM kv", tok)
		return err == nil
	})
	got := map[int64]int64{}
	for _, row := range res.Rows {
		got[row[0].I] = row[1].I
	}
	if len(got) != 3 || got[1] != 10 || got[2] != 20 || got[3] != 30 {
		t.Fatalf("rebuilt replica serves %v, want {1:10 2:20 3:30}", got)
	}
}

// TestShardedReplicaRejected: replicas are single-node.
func TestShardedReplicaRejected(t *testing.T) {
	_, err := Start(Config{Addr: "127.0.0.1:0", Shards: 2, Replica: repl.ReplicaConfig{Upstream: "127.0.0.1:1"}})
	if err == nil {
		t.Fatal("sharded replica started")
	}
}
