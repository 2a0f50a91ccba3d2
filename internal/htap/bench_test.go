package htap

import (
	"math/rand"
	"testing"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

const benchRows = 20000

var benchRegions = []string{"emea", "apj", "amer", "latam"}

// benchLane loads benchRows rows into a lane-enabled FACTS table with
// 4096-slot chunks: the first migrate rows are settled and migrated, the
// rest stay in the delta tail.
func benchLane(b *testing.B, migrate int) (*core.DB, *Store, ts.TableID) {
	b.Helper()
	db, err := core.Open(core.Config{Txn: txn.Config{SynchronousPropagation: true}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	tid, err := db.CreateTable("FACTS")
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewStore(db, Config{ChunkSlots: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.EnableTable(tid, laneSchema); err != nil {
		b.Fatal(err)
	}
	insert := func(lo, hi int) {
		for base := lo; base < hi; base += 512 {
			n := hi - base
			if n > 512 {
				n = 512
			}
			if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
				for i := 0; i < n; i++ {
					img, _ := colstore.EncodeRow(laneSchema, colstore.Row{
						colstore.IntV(int64(base + i)), colstore.StrV(benchRegions[(base+i)%4]),
					})
					if _, err := tx.Insert(tid, img); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	insert(0, migrate)
	if migrate > 0 {
		db.GC().Collect()
		st.Migrate()
	}
	insert(migrate, benchRows)
	return db, st, tid
}

// benchUpdate rewrites n distinct random rows of a benchLane table, one
// transaction each.
func benchUpdate(b *testing.B, db *core.DB, tid ts.TableID, rng *rand.Rand, n int) {
	b.Helper()
	for _, i := range rng.Perm(benchRows)[:n] {
		img, _ := colstore.EncodeRow(laneSchema, colstore.Row{
			colstore.IntV(int64(i) + 1), colstore.StrV(benchRegions[i%4]),
		})
		if err := db.Exec(txn.StmtSI, nil, func(tx *core.Tx) error {
			return tx.Update(tid, ts.RID(i+1), img)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOLAPScan measures the aggregate executor across lane states: the
// fully-migrated column path versus the pure row path over identical data,
// a delta-heavy lane (half the table un-migrated) in between, and a churned
// lane — fully migrated, then 7% of its rows updated and left versioned, the
// dirty share of the htap-sql workload — whose dirty rows the row fallback
// reads. The churned cases' allocs/op must not grow with the dirty count.
func BenchmarkOLAPScan(b *testing.B) {
	const rows = benchRows
	const churned = rows * 7 / 100
	setup := func(b *testing.B, migrate int) (*Store, ts.TableID) {
		_, st, tid := benchLane(b, migrate)
		return st, tid
	}
	setupChurned := func(b *testing.B) (*Store, ts.TableID) {
		db, st, tid := benchLane(b, rows)
		benchUpdate(b, db, tid, rand.New(rand.NewSource(1)), churned)
		return st, tid
	}

	run := func(b *testing.B, st *Store, tid ts.TableID, spec AggSpec) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := st.Aggregate(tid, spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Groups[0].Count == 0 {
				b.Fatal("empty aggregate")
			}
		}
		b.SetBytes(rows * 8)
	}

	for _, bc := range []struct {
		name    string
		migrate int
	}{
		{"column/chunked", rows}, // fully settled and migrated: pure vectors
		{"column/delta-heavy", rows / 2},
		{"row", 0}, // lane enabled, nothing migrated: pure MVCC row reads
	} {
		b.Run("sum/"+bc.name, func(b *testing.B) {
			st, tid := setup(b, bc.migrate)
			run(b, st, tid, AggSpec{Op: AggSum, Col: "amount"})
		})
	}
	b.Run("groupby/column/chunked", func(b *testing.B) {
		st, tid := setup(b, rows)
		run(b, st, tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	})
	b.Run("groupby/row", func(b *testing.B) {
		st, tid := setup(b, 0)
		run(b, st, tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	})
	b.Run("sum/column/churned", func(b *testing.B) {
		st, tid := setupChurned(b)
		run(b, st, tid, AggSpec{Op: AggSum, Col: "amount"})
	})
	b.Run("groupby/column/churned", func(b *testing.B) {
		st, tid := setupChurned(b)
		run(b, st, tid, AggSpec{Op: AggSum, Col: "amount", GroupBy: "region"})
	})
}

// BenchmarkMigratePass measures one migrator pass over a migrated
// 20k-row lane after 200 random updates have settled: rows/pass is how
// many rows the pass re-settled into chunks, which should track the
// updates rather than the chunks they touched.
func BenchmarkMigratePass(b *testing.B) {
	const updates = 200
	db, st, tid := benchLane(b, benchRows)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	var resettled int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchUpdate(b, db, tid, rng, updates)
		db.GC().Collect()
		b.StartTimer()
		resettled += st.Migrate()
	}
	b.ReportMetric(float64(resettled)/float64(b.N), "rows/pass")
}
