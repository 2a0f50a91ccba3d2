package gc

import (
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// DefaultLongLivedThreshold is the age past which a snapshot counts as
// long-lived for the table collector when no threshold is configured.
const DefaultLongLivedThreshold = 500 * time.Millisecond

// TableGC is the table garbage collector of §4.3, the semantic optimization:
//
//  1. it discovers long-lived snapshots whose complete table scope is known
//     a priori (always under Stmt-SI; under Trans-SI for declared-table
//     transactions and precompiled procedures) via the system monitor;
//  2. it moves their snapshot timestamps from the global STS tracker to the
//     per-table STS trackers of their scope tables;
//  3. it reclaims versions with per-table horizons, so a long-lived OLAP
//     snapshot over one table no longer blocks reclamation of every other
//     table.
//
// The group list scan is bounded by the minimum of the *global* tracker
// (region B of Figure 9); each version's reclamation horizon is its own
// table's effective minimum.
// PartitionResolver maps a record to its partition, when its table is
// partitioned. The engine wires its catalog in; a nil resolver (or a false
// return) keeps the collector at table granularity.
type PartitionResolver func(ts.RecordKey) (ts.PartitionID, bool)

type TableGC struct {
	m *txn.Manager
	// Threshold is the long-lived snapshot age cutoff.
	Threshold time.Duration
	// Resolver enables the partition-level semantic optimization of §4.3:
	// snapshots with declared partition scopes move to per-partition
	// trackers, and versions are reclaimed against their own partition's
	// horizon.
	Resolver PartitionResolver
	Totals   Totals
}

// NewTableGC returns a TG collector with the given long-lived threshold
// (<=0 selects DefaultLongLivedThreshold).
func NewTableGC(m *txn.Manager, threshold time.Duration) *TableGC {
	if threshold <= 0 {
		threshold = DefaultLongLivedThreshold
	}
	return &TableGC{m: m, Threshold: threshold}
}

// Name implements Collector.
func (c *TableGC) Name() string { return "TG" }

// Collect implements Collector.
func (c *TableGC) Collect() RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}

	// Steps 1+2: classify long-lived snapshots and move their timestamps to
	// per-table (or, when the plan's partition pruning is known,
	// per-partition) trackers.
	for _, s := range c.m.Monitor().LongLived(c.Threshold) {
		if tid, parts, ok := s.PartitionScope(); ok {
			if s.Handle().ScopeToPartitions(tid, parts) {
				st.SnapshotsScoped++
			}
			continue
		}
		if s.Handle().ScopeToTables(s.Scope()) {
			st.SnapshotsScoped++
		}
	}

	// Step 3: reclaim with per-table minimums. Scan groups up to the global
	// tracker's minimum — versions beyond it are pinned globally anyway.
	bound := c.globalTrackerBound()
	st.Horizon = bound
	space := c.m.Space()
	// Per-table and per-partition horizons are stable during the pass, and
	// so is whether a table is partitioned; cache them, so unpartitioned
	// tables cost no resolver call per version.
	type tableInfo struct {
		horizon     ts.CID
		partitioned bool
	}
	tables := make(map[ts.TableID]tableInfo)
	partHorizons := make(map[ts.PartKey]ts.CID)
	horizonFor := func(key ts.RecordKey) ts.CID {
		info, cached := tables[key.Table]
		if !cached {
			info.horizon = c.m.TableHorizon(key.Table)
			if c.Resolver != nil {
				_, info.partitioned = c.Resolver(key)
			}
			tables[key.Table] = info
		}
		if info.partitioned {
			if p, ok := c.Resolver(key); ok {
				pk := ts.PartKey{Table: key.Table, Partition: p}
				h, cached := partHorizons[pk]
				if !cached {
					h = c.m.PartitionHorizon(key.Table, p)
					partHorizons[pk] = h
				}
				return h
			}
		}
		return info.horizon
	}
	space.Groups.Ascending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid >= bound {
			return false
		}
		for _, v := range g.Versions() {
			if v.Reclaimed() {
				continue
			}
			min := horizonFor(v.Key)
			if cid >= min {
				continue
			}
			st.ChainsScanned++
			res := space.ReclaimBelow(v.Chain(), min)
			st.Versions += int64(res.Versions)
			if res.Migrated {
				st.Migrated++
			}
			if res.Dropped {
				st.Dropped++
			}
			if res.Emptied {
				st.ChainsEmptied++
			}
		}
		// A group with live versions left stays, minus what was reclaimed —
		// here or earlier by another collector.
		if g.Compact() == 0 {
			space.Groups.Remove(g)
			st.Groups++
		}
		return true
	})
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// globalTrackerBound returns the minimum over unscoped (not table-scoped)
// snapshot announcements, or everything-committed when there are none.
func (c *TableGC) globalTrackerBound() ts.CID {
	return c.m.GlobalTrackerHorizon()
}
