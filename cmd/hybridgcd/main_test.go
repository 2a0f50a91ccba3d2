package main

import (
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/htap"
	"hybridgc/internal/node"
	"hybridgc/internal/repl"
	"hybridgc/internal/server"
)

// TestFlagDefaultsMapToNodeConfig pins the node the default command line
// assembles: the 50/150/500 ms HybridGC profile, a 100 ms long-lived
// threshold, and every server and replication knob at its flag default.
func TestFlagDefaultsMapToNodeConfig(t *testing.T) {
	s, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := node.Config{
		Addr: "127.0.0.1:7654",
		Engine: core.Config{
			GC:                 gc.Periods{GT: 50 * time.Millisecond, TG: 150 * time.Millisecond, SI: 500 * time.Millisecond},
			LongLivedThreshold: 100 * time.Millisecond,
		},
		Shards:    1,
		Server:    server.Config{MaxConns: 256, IdleTimeout: 2 * time.Minute},
		Replica:   repl.ReplicaConfig{ReplicaID: "replica"},
		TokenWait: 150 * time.Millisecond,
	}
	if !reflect.DeepEqual(s.node, want) {
		t.Fatalf("default flags:\n got %+v\nwant %+v", s.node, want)
	}
}

// TestGCModePeriods: each -gc mode enables a prefix of the GT/TG/SI profile.
func TestGCModePeriods(t *testing.T) {
	const ms = time.Millisecond
	for mode, want := range map[string]gc.Periods{
		"none":   {},
		"gt":     {GT: 50 * ms},
		"gttg":   {GT: 50 * ms, TG: 150 * ms},
		"gt+tg":  {GT: 50 * ms, TG: 150 * ms},
		"hg":     {GT: 50 * ms, TG: 150 * ms, SI: 500 * ms},
		"Hybrid": {GT: 50 * ms, TG: 150 * ms, SI: 500 * ms},
	} {
		s, err := parseFlags([]string{"-gc", mode})
		if err != nil {
			t.Fatalf("-gc %s: %v", mode, err)
		}
		if s.node.Engine.GC != want {
			t.Errorf("-gc %s: periods %+v, want %+v", mode, s.node.Engine.GC, want)
		}
		if s.node.Engine.LongLivedThreshold != 100*ms {
			t.Errorf("-gc %s: long-lived threshold %v", mode, s.node.Engine.LongLivedThreshold)
		}
	}
	if _, err := parseFlags([]string{"-gc", "bogus"}); err == nil {
		t.Fatal("-gc bogus accepted")
	}
}

// TestPersistentHTAPFlags covers the perfbench profiles: -sync reaches the
// WAL, -htap takes the -htap-every default, and the replication and
// checkpoint flags land in their component configs.
func TestPersistentHTAPFlags(t *testing.T) {
	s, err := parseFlags([]string{
		"-data", "/d", "-sync", "-htap", "-checkpoint-every", "30s",
		"-soft", "1000", "-hard", "3000", "-token", "tk",
		"-repl-stale-after", "2s", "-repl-write-timeout", "1s",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.node
	if p := cfg.Engine.Persistence; p == nil || *p != (core.Persistence{Dir: "/d", Sync: true}) {
		t.Fatalf("persistence %+v", p)
	}
	if cfg.HTAP == nil || *cfg.HTAP != (htap.Config{Interval: 25 * time.Millisecond}) {
		t.Fatalf("htap %+v", cfg.HTAP)
	}
	if cfg.CheckpointEvery != 30*time.Second {
		t.Fatalf("checkpoint interval %v", cfg.CheckpointEvery)
	}
	if cfg.Engine.VersionBudget != (core.VersionBudget{Soft: 1000, Hard: 3000}) {
		t.Fatalf("version budget %+v", cfg.Engine.VersionBudget)
	}
	if cfg.Server.Token != "tk" {
		t.Fatalf("server token %q", cfg.Server.Token)
	}
	if cfg.Source != (repl.SourceConfig{StaleAfter: 2 * time.Second, WriteTimeout: time.Second}) {
		t.Fatalf("source %+v", cfg.Source)
	}
	if s, _ := parseFlags(nil); s.node.Engine.Persistence != nil || s.node.HTAP != nil {
		t.Fatal("no -data/-htap still configured persistence or HTAP")
	}
}

func TestReplicaFlags(t *testing.T) {
	s, err := parseFlags([]string{
		"-replica-of", "10.0.0.1:7654", "-replica-id", "r7", "-upstream-token", "up",
		"-token-wait", "40ms", "-repl-stale-after", "2s", "-repl-write-timeout", "1s",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := repl.ReplicaConfig{Upstream: "10.0.0.1:7654", Token: "up", ReplicaID: "r7", StallTimeout: 2 * time.Second, WriteTimeout: time.Second}
	if s.node.Replica != want {
		t.Fatalf("replica %+v, want %+v", s.node.Replica, want)
	}
	if s.node.TokenWait != 40*time.Millisecond {
		t.Fatalf("token wait %v", s.node.TokenWait)
	}
}

// TestShardedReplicaExits2 runs the binary's main in a child process: a
// sharded replica is a usage error.
func TestShardedReplicaExits2(t *testing.T) {
	if os.Getenv("HYBRIDGCD_MAIN") == "1" {
		os.Args = []string{"hybridgcd", "-shards", "2", "-replica-of", "x"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestShardedReplicaExits2$")
	cmd.Env = append(os.Environ(), "HYBRIDGCD_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; output:\n%s", err, out)
	}
}
