package repl

import (
	"errors"
	"testing"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/wal"
)

// TestReadGate drives the replica read gate against a live stream: an
// applied token passes at once, a token the applier reaches within the wait
// passes after waiting, and a token it never reaches bounces with the
// transient ErrReplicaBehind.
func TestReadGate(t *testing.T) {
	p := startPrimary(t, fastSource(), nil)
	tid := mustCreateTable(t, p.db, "accounts")
	mustInsert(t, p.db, tid, "seed")
	r := startReplica(t, p.addr, "gated")
	waitCaughtUp(t, p, r)

	t.Run("applied", func(t *testing.T) {
		waited, err := r.rep.ReadGate(time.Second)(uint64(r.rep.AppliedLSN()))
		if err != nil || waited {
			t.Fatalf("applied token: waited=%v err=%v, want pass without waiting", waited, err)
		}
	})

	t.Run("reached within wait", func(t *testing.T) {
		// Every record now takes 100ms to apply, so the fresh commit's
		// token is certainly ahead of the applier when the gate sees it.
		fault.Enable(FPApplyStall, fault.Sleep(100*time.Millisecond))
		defer fault.Disable(FPApplyStall)
		mustInsert(t, p.db, tid, "fresh")
		waited, err := r.rep.ReadGate(5 * time.Second)(uint64(p.db.WAL().NextLSN()))
		if err != nil || !waited {
			t.Fatalf("reachable token: waited=%v err=%v, want pass after waiting", waited, err)
		}
	})

	t.Run("never reached", func(t *testing.T) {
		beyond := p.db.WAL().NextLSN() + wal.LSN(1<<30)
		waited, err := r.rep.ReadGate(30 * time.Millisecond)(uint64(beyond))
		if !waited || !errors.Is(err, core.ErrReplicaBehind) || !core.IsTransient(err) {
			t.Fatalf("unreachable token: waited=%v err=%v, want a transient ErrReplicaBehind bounce", waited, err)
		}
	})
}
