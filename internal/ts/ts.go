// Package ts defines the commit-timestamp domain used throughout the engine
// and the interval arithmetic behind interval garbage collection: the least
// greater number (LGN), visible intervals, and the consecutive interval
// intersection problem of Definition 1 in the paper, solved both naively and
// with the merge-based Algorithm 1.
package ts

import "math"

// CID is a commit identifier. Snapshot timestamps live in the same domain: a
// snapshot with timestamp s sees exactly the versions whose CID is <= s.
//
// CID 0 never names a committed group; it is reserved as the "unresolved"
// marker for versions whose transaction has not committed yet.
type CID uint64

// Infinity is the sentinel upper bound of the timestamp domain. It compares
// greater than every assignable CID and stands in for "no least greater
// number exists" in LGN computations.
const Infinity CID = math.MaxUint64

// Invalid is the zero CID, used for not-yet-committed versions.
const Invalid CID = 0

// Interval is a half-open visible interval [Start, End): the set of snapshot
// timestamps to which a version with CID Start is visible, where End is the
// CID of the next-newer version of the same record (or Infinity).
type Interval struct {
	Start CID
	End   CID
}

// Contains reports whether snapshot timestamp s falls inside the interval.
func (iv Interval) Contains(s CID) bool {
	return iv.Start <= s && s < iv.End
}

// Empty reports whether the interval contains no timestamp at all.
func (iv Interval) Empty() bool {
	return iv.End <= iv.Start
}

// LGN returns the least greater number for t with respect to the ordered
// sequence s: the smallest element of s that is greater than or equal to t,
// or Infinity when no such element exists. s must be sorted ascending.
func LGN(t CID, s []CID) CID {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(s) {
		return Infinity
	}
	return s[lo]
}

// Intervals expands an ordered sequence of version CIDs into the visible
// intervals of its elements: element i maps to [t[i], t[i+1]) and the last
// element to [t[n-1], Infinity).
func Intervals(t []CID) []Interval {
	out := make([]Interval, len(t))
	for i, v := range t {
		end := Infinity
		if i+1 < len(t) {
			end = t[i+1]
		}
		out[i] = Interval{Start: v, End: end}
	}
	return out
}

// NaiveIntersect computes T∩ of Definition 1 by checking, for every element
// of t, whether any active snapshot timestamp in s falls inside its visible
// interval. It runs in O(|t|·|s|) (binary search brings each probe to
// O(log|s|), but the per-element loop structure is the naive one) and exists
// as the correctness oracle and ablation baseline for MergeIntersect.
//
// Both sequences must be sorted ascending. The returned slice preserves the
// order of t. The last element of t is never part of the result: its visible
// interval extends to Infinity and therefore covers every future snapshot.
func NaiveIntersect(s, t []CID) []CID {
	var out []CID
	for i := 0; i+1 < len(t); i++ {
		// LGN(t[i]+1, t) is simply t[i+1] because t is ordered and strictly
		// increasing in CIDs of committed versions of one record.
		if t[i+1] <= LGN(t[i], s) {
			out = append(out, t[i])
		}
	}
	return out
}

// MergeIntersect is Algorithm 1 of the paper: the merge-based solution to the
// consecutive interval intersection problem. Given the ordered active
// snapshot timestamps s and the ordered committed version CIDs t of one
// record, it returns the subset of t whose visible intervals contain no
// element of s — the versions invisible to every active and future snapshot.
//
// It runs in O(|t|+|s|). Both inputs must be sorted ascending; t must be
// strictly increasing (committed versions of one record have distinct CIDs).
func MergeIntersect(s, t []CID) []CID {
	var out []CID
	ForEachGarbage(s, t, func(i int) { out = append(out, t[i]) })
	return out
}

// ForEachGarbage is the merge loop of MergeIntersect without the result
// slice: it calls fn with the index in t of each garbage element, in
// ascending order. Collectors that reclaim in place use it directly.
func ForEachGarbage(s, t []CID, fn func(i int)) {
	i, j := 0, 0
	for i < len(t)-1 {
		switch {
		case j < len(s) && s[j] < t[i]:
			j++
		case j == len(s) || t[i+1] <= s[j]:
			// LGN(t[i], s) is s[j] (or Infinity when s is exhausted), and the
			// next version's CID t[i+1] does not exceed it, so no snapshot
			// lives inside [t[i], t[i+1]).
			fn(i)
			i++
		default:
			i++
		}
	}
}

// GarbageMask reports, for each element of t, whether it is garbage with
// respect to s, as a boolean mask aligned with t.
func GarbageMask(s, t []CID) []bool {
	mask := make([]bool, len(t))
	ForEachGarbage(s, t, func(i int) { mask[i] = true })
	return mask
}
