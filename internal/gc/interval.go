package gc

import (
	"time"

	"hybridgc/internal/mvcc"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Interval (SI) is the interval garbage collector of §4.2. It retrieves the
// full ordered set S of active snapshot timestamps, finds the
// GroupCommitContext objects whose CIDs lie strictly between min(S) and
// max(S), walks the version chains reachable from them highest-CID-first,
// and reclaims every version whose visible interval contains no element of
// S using the merge-based Algorithm 1. This collects versions in the middle
// of chains that a long-lived snapshot would otherwise pin forever.
//
// With TableAware set, S is narrowed per chain to the snapshots that can
// actually reach the chain's table (global tracker plus that table's
// tracker) — a finer-grained extension of the paper's pre-materialized
// union, which the default mode uses.
//
// FromHashTable selects the alternative implementation §4.2 mentions:
// reaching the version chains from the RID hash table instead of from the
// GroupCommitContext list, "which is more useful when we need to logically
// partition the version space to execute the interval garbage collector by
// multiple threads in parallel". Parallelism > 1 splits the chain set
// across that many goroutines (§4.4's parallel execution).
type Interval struct {
	m *txn.Manager
	// TableAware narrows the snapshot set per table instead of using the
	// union of all trackers.
	TableAware bool
	// FromHashTable scans every registered chain instead of only chains
	// reachable from groups in the (min(S), bound] window.
	FromHashTable bool
	// Parallelism is the number of reclamation goroutines; <=1 runs serial.
	Parallelism int
	Totals      Totals
}

// NewInterval returns an SI collector over m.
func NewInterval(m *txn.Manager) *Interval {
	return &Interval{m: m}
}

// Name implements Collector.
func (c *Interval) Name() string { return "SI" }

// Collect implements Collector.
func (c *Interval) Collect() RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}
	// Step 1: retrieve the full active snapshot timestamp set, atomically
	// with the commit timestamp that bounds how far interval reclamation may
	// reach (§4.2 bounds by max(S); the commit-timestamp bound collects
	// strictly more and stays safe because snapshots registered after this
	// point cannot sit below it).
	snaps, bound := c.m.SnapshotSetAndBound()
	if len(snaps) < 1 {
		// No active snapshot: the timestamp collectors reclaim everything;
		// there is no interval work.
		st.Duration = time.Since(start)
		c.Totals.record(st)
		return st
	}
	minS := snaps[0]
	st.Horizon = bound
	space := c.m.Space()

	// Step 2+3: gather the chains to inspect — either every chain reachable
	// from groups with min(S) < CID <= bound (highest-CID-first,
	// deduplicated), or, in FromHashTable mode, every registered chain. A
	// chain of fewer than two versions has no interval garbage (its newest
	// committed version is never reclaimed), so it is skipped up front.
	var chains []*mvcc.Chain
	var window []*mvcc.GroupCommitContext
	if c.FromHashTable {
		space.HT.ForEach(func(ch *mvcc.Chain) bool {
			if ch.Len() >= 2 {
				chains = append(chains, ch)
			}
			return true
		})
	} else {
		seen := make(map[*mvcc.Chain]struct{})
		space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
			cid := g.CID()
			if cid > bound {
				return true // newer than the window; keep descending
			}
			if cid <= minS {
				return false // below the window; the ordered list is done
			}
			window = append(window, g)
			for _, v := range g.Versions() {
				if v.Reclaimed() {
					continue
				}
				ch := v.Chain()
				if ch.Len() < 2 {
					continue
				}
				if _, dup := seen[ch]; !dup {
					seen[ch] = struct{}{}
					chains = append(chains, ch)
				}
			}
			return true
		})
	}

	// Step 4: per chain, reclaim the versions whose visible interval
	// intersects no snapshot (Algorithm 1 runs inside ReclaimIntervals),
	// optionally across several goroutines over disjoint chain partitions.
	reclaimPart := func(part []*mvcc.Chain) (versions, scanned int64) {
		var buf mvcc.IntervalScratch
		for _, ch := range part {
			scanned++
			s := snaps
			if c.TableAware {
				s = c.m.Registry().SnapshotFor(ch.Key.Table)
			}
			versions += int64(space.ReclaimIntervals(ch, s, bound, &buf))
		}
		return versions, scanned
	}
	if p := c.Parallelism; p > 1 && len(chains) > 1 {
		if p > len(chains) {
			p = len(chains)
		}
		type partRes struct{ versions, scanned int64 }
		results := make(chan partRes, p)
		per := (len(chains) + p - 1) / p
		for i := 0; i < len(chains); i += per {
			end := i + per
			if end > len(chains) {
				end = len(chains)
			}
			go func(part []*mvcc.Chain) {
				v, s := reclaimPart(part)
				results <- partRes{v, s}
			}(chains[i:end])
		}
		for i := 0; i < (len(chains)+per-1)/per; i++ {
			r := <-results
			st.Versions += r.versions
			st.ChainsScanned += r.scanned
		}
	} else {
		v, s := reclaimPart(chains)
		st.Versions += v
		st.ChainsScanned += s
	}
	// Drop what this pass reclaimed from the window's group lists, so the
	// versions leave memory even while the pinning snapshot keeps the groups
	// themselves in the list.
	for _, g := range window {
		g.Compact()
	}
	st.Groups = pruneDrainedGroups(space)
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}

// GroupInterval (GI) is the group interval collector of §3.2, which the
// paper describes via immediate-successor subgroups and leaves unimplemented
// in HANA ("an interesting future topic of research"). This implementation
// realizes it as follows: within the (min(S), max(S)) window, the versions
// of each group G are partitioned by the CID of their immediate committed
// successor; each subgroup shares one visible interval [cid(G), succCID), so
// one LGN probe against S decides the whole subgroup. Decisions are memoized
// per (CID, successor-CID) pair, which is the batching that distinguishes GI
// from SI.
type GroupInterval struct {
	m      *txn.Manager
	Totals Totals
}

// NewGroupInterval returns a GI collector over m.
func NewGroupInterval(m *txn.Manager) *GroupInterval {
	return &GroupInterval{m: m}
}

// Name implements Collector.
func (c *GroupInterval) Name() string { return "GI" }

// Collect implements Collector.
func (c *GroupInterval) Collect() RunStats {
	start := time.Now()
	st := RunStats{Collector: c.Name()}
	snaps, bound := c.m.SnapshotSetAndBound()
	if len(snaps) < 1 {
		st.Duration = time.Since(start)
		c.Totals.record(st)
		return st
	}
	minS := snaps[0]
	st.Horizon = bound
	space := c.m.Space()

	type ivKey struct{ self, succ ts.CID }
	memo := make(map[ivKey]bool)
	decide := func(self, succ ts.CID) bool {
		if succ > bound {
			return false
		}
		k := ivKey{self, succ}
		if g, ok := memo[k]; ok {
			return g
		}
		// The subgroup's interval [self, succ) is garbage iff no snapshot
		// lies inside it: succ <= LGN(self, S).
		g := succ <= ts.LGN(self, snaps)
		memo[k] = g
		return g
	}

	space.Groups.Descending(func(g *mvcc.GroupCommitContext) bool {
		cid := g.CID()
		if cid > bound {
			return true
		}
		if cid <= minS {
			return false
		}
		st.ChainsScanned++
		for _, v := range g.Versions() {
			if v.Reclaimed() {
				continue
			}
			if space.ReclaimVersionIf(v, decide) {
				st.Versions++
			}
		}
		g.Compact()
		return true
	})
	st.Groups = pruneDrainedGroups(space)
	st.Duration = time.Since(start)
	c.Totals.record(st)
	return st
}
