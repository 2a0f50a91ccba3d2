//go:build go1.24

package gc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// TestReclaimedVersionsLeaveMemory is the space half of the interval
// collector's promise: a version SI unlinks from the middle of a chain must
// become unreachable, not merely flagged, while the cursor that forced
// interval collection keeps its commit groups in the list. It holds weak
// references to every version, runs one SI pass, and requires every
// reclaimed version to be gone after a Go garbage collection.
func TestReclaimedVersionsLeaveMemory(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	const rows, rounds = 8, 20
	var rids []ts.RID
	for i := 0; i < rows; i++ {
		rids = append(rids, e.insert(tbl, "v0"))
	}
	// A Stmt-SI cursor over T pins the horizon at the loaded image.
	cursor := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
	defer cursor.Release()
	// Each update commits alone, so each commit group holds one version.
	for round := 1; round <= rounds; round++ {
		for _, rid := range rids {
			e.update(tbl, rid, fmt.Sprintf("v%d", round))
		}
	}
	var refs []weak.Pointer[mvcc.Version]
	e.space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		for _, v := range g.Versions() {
			refs = append(refs, weak.Make(v))
		}
		return true
	})

	st := NewHybrid(e.m, Periods{}, 0).RunSI()
	// The cursor sees v0 and the newest version is kept: every update in
	// between is interval garbage.
	if want := int64(rows * (rounds - 1)); st.Versions != want {
		t.Fatalf("SI reclaimed %d versions, want %d", st.Versions, want)
	}
	reclaimed := reclaimedRefs(refs)
	if int64(len(reclaimed)) < st.Versions {
		t.Fatalf("%d versions flagged reclaimed, SI reported %d", len(reclaimed), st.Versions)
	}
	runtime.GC()
	runtime.GC()
	leaked := 0
	for _, i := range reclaimed {
		if refs[i].Value() != nil {
			leaked++
		}
	}
	if leaked > 0 {
		t.Fatalf("%d of %d reclaimed versions are still reachable after GC", leaked, len(reclaimed))
	}
	for _, rid := range rids {
		if img, ok := e.read(tbl, rid, cursor.TS()); !ok || img != "v0" {
			t.Fatalf("cursor read of %d = %q,%v, want v0", rid, img, ok)
		}
	}
}

// reclaimedRefs returns the indexes of refs whose version is flagged
// reclaimed. It is a separate function so no strong reference outlives it.
func reclaimedRefs(refs []weak.Pointer[mvcc.Version]) []int {
	var out []int
	for i, r := range refs {
		if v := r.Value(); v != nil && v.Reclaimed() {
			out = append(out, i)
		}
	}
	return out
}

// TestCompactConcurrentWithPasses races group compaction against writers,
// the GT/TG/SI passes and the Figure 9 region scan (run it under -race).
// Compaction swaps in new slices instead of editing them, so the walkers
// never see a torn list, and once everything stops the group lists still
// account for every live version.
func TestCompactConcurrentWithPasses(t *testing.T) {
	e := newEnv(t)
	tbl := e.createTable("T")
	var rids []ts.RID
	for i := 0; i < 16; i++ {
		rids = append(rids, e.insert(tbl, "v0"))
	}
	cursor := e.m.AcquireSnapshot(txn.KindCursor, []ts.TableID{tbl.ID})
	defer cursor.Release()
	h := NewHybrid(e.m, Periods{}, time.Millisecond)

	d := 300 * time.Millisecond
	if testing.Short() {
		d = 100 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	loop(func(i int) { e.update(tbl, rids[i%len(rids)], fmt.Sprintf("w%d", i)) })
	loop(func(i int) {
		switch i % 3 {
		case 0:
			h.RunGT()
		case 1:
			h.RunTG()
		default:
			h.RunSI()
		}
	})
	loop(func(int) { CurrentRegions(e.m) })
	loop(func(int) {
		e.space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
			g.Compact()
			return true
		})
	})
	time.Sleep(d)
	close(stop)
	wg.Wait()

	if r := CurrentRegions(e.m); r.Total() != e.space.Live() {
		t.Fatalf("group lists hold %d unreclaimed versions, version space has %d live", r.Total(), e.space.Live())
	}
	for _, rid := range rids {
		if img, ok := e.read(tbl, rid, cursor.TS()); !ok || img != "v0" {
			t.Fatalf("cursor read of %d = %q,%v, want v0", rid, img, ok)
		}
	}
}
