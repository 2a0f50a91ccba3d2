package gc

import (
	"fmt"
	"testing"

	"hybridgc/internal/table"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// The pass benchmarks collect a fixed history: benchChains records, then
// benchGroups single-version update groups spread round-robin over them,
// behind a pinned cursor. They report the pass cost per reclaimed version
// (ns/reclaimed) and the bytes a pass allocates (B/op).
const benchChains, benchGroups = 2000, 10000

// benchPass times one Collect per iteration over a freshly built history;
// setup builds it (untimed) and returns the collector and the cursor to
// release afterwards.
func benchPass(b *testing.B, setup func(e *env) (Collector, *txn.Snapshot)) {
	b.ReportAllocs()
	var reclaimed int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := openEnv(b)
		c, cursor := setup(e)
		b.StartTimer()
		reclaimed += c.Collect().Versions
		b.StopTimer()
		cursor.Release()
		e.m.Close()
	}
	if reclaimed == 0 {
		b.Fatal("the pass reclaimed nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reclaimed), "ns/reclaimed")
}

// updateRounds commits benchGroups updates round-robin over rids.
func updateRounds(e *env, tbl *table.Table, rids []ts.RID) {
	for i := 0; i < benchGroups; i++ {
		e.update(tbl, rids[i%len(rids)], fmt.Sprintf("u%d", i))
	}
}

func insertRows(e *env, tbl *table.Table) []ts.RID {
	rids := make([]ts.RID, benchChains)
	for i := range rids {
		rids[i] = e.insert(tbl, "v0")
	}
	return rids
}

// BenchmarkIntervalPass times an SI pass over the window a cursor pins: every
// update but the newest of each record is interval garbage.
func BenchmarkIntervalPass(b *testing.B) {
	benchPass(b, func(e *env) (Collector, *txn.Snapshot) {
		tbl := e.createTable("T")
		rids := insertRows(e, tbl)
		cursor := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
		updateRounds(e, tbl, rids)
		return NewInterval(e.m), cursor
	})
}

// BenchmarkTableGCPass times a TG pass that scopes a cursor pinned on one
// table and reclaims the whole history of another table behind it.
func BenchmarkTableGCPass(b *testing.B) {
	benchPass(b, func(e *env) (Collector, *txn.Snapshot) {
		pinned := e.createTable("PINNED")
		e.insert(pinned, "p0")
		tbl := e.createTable("T")
		cursor := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{pinned.ID})
		updateRounds(e, tbl, insertRows(e, tbl))
		return NewTableGC(e.m, 1), cursor
	})
}
