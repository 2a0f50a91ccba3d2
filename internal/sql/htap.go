package sql

// HTAP lane integration: a catalog-attached htap.Manager serves eligible
// aggregate SELECTs (COUNT/SUM/MIN/MAX, optional GROUP BY, no WHERE)
// straight from dictionary-encoded column chunks, with MVCC row reads
// covering the un-migrated delta tail. The conventional statement form is
//
//	SELECT SUM(amount) /* aggregate */ FROM facts GROUP BY region
//
// (the comment is an ordinary hint, skipped by the lexer — eligibility is
// decided structurally). Explicit transactions always take the row path:
// their statements must observe the transaction's own uncommitted writes
// and, under Trans-SI, the transaction snapshot, neither of which the lane
// serves.

import (
	"fmt"
	"sort"
	"strings"

	"hybridgc/internal/htap"
)

// AttachHTAP wires the column-lane manager into the catalog; sessions then
// route eligible aggregates through it, and EnableHTAP can arm new tables.
func (c *Catalog) AttachHTAP(m *htap.Manager) {
	c.mu.Lock()
	c.htap = m
	c.mu.Unlock()
}

// HTAP returns the attached column-lane manager, or nil.
func (c *Catalog) HTAP() *htap.Manager {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.htap
}

// EnableHTAP enables the column lane for a SQL table on every shard.
func (c *Catalog) EnableHTAP(table string) error {
	m := c.HTAP()
	if m == nil {
		return fmt.Errorf("sql: no HTAP lane manager attached")
	}
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	return m.EnableTable(t.ID, t.schema)
}

var aggOps = map[string]htap.AggOp{
	"COUNT": htap.AggCount,
	"SUM":   htap.AggSum,
	"MIN":   htap.AggMin,
	"MAX":   htap.AggMax,
}

// laneAggregate serves an eligible aggregate SELECT from the column lane.
// ok reports whether the lane took the query; on false the caller falls
// back to the row path.
func (s *Session) laneAggregate(t *TableInfo, st *SelectStmt) (*Result, bool, error) {
	if st.Aggregate == "" || s.tx != nil ||
		len(st.Where) != 0 || st.Order != nil || st.Limit != 0 {
		return nil, false, nil
	}
	m := s.cat.HTAP()
	if m == nil || !m.Enabled(t.ID) {
		return nil, false, nil
	}
	op := aggOps[st.Aggregate]
	res, err := m.Aggregate(t.ID, htap.AggSpec{Op: op, Col: st.AggColumn, GroupBy: st.GroupBy})
	if err != nil {
		return nil, true, err
	}
	aggName := strings.ToLower(st.Aggregate)
	if st.GroupBy == "" {
		return &Result{
			Columns: []string{aggName},
			Rows:    [][]Datum{{IntD(res.Groups[0].Result(op))}},
		}, true, nil
	}
	gi, err := t.ColumnIndex(st.GroupBy)
	if err != nil {
		return nil, true, err
	}
	groupText := t.Columns[gi].Type == TText
	out := &Result{Columns: []string{st.GroupBy, aggName}}
	for _, g := range res.Groups {
		key := IntD(g.Key.I)
		if groupText {
			key = TextD(g.Key.S)
		}
		out.Rows = append(out.Rows, []Datum{key, IntD(g.Result(op))})
	}
	return out, true, nil
}

func init() {
	// m_htap surfaces per-table lane state: columnar coverage, migrator
	// lag, the dirty set, and the delta tail — the counters the HTAP
	// experiments plot with the lane on versus off.
	views["m_htap"] = view{
		info: viewInfo("m_htap", []ColumnDef{
			{Name: "name", Type: TText}, {Name: "id", Type: TInt},
			{Name: "chunks", Type: TInt}, {Name: "chunk_rows", Type: TInt},
			{Name: "delta_rows", Type: TInt}, {Name: "dirty_rows", Type: TInt},
			{Name: "migrated_rows", Type: TInt}, {Name: "watermark", Type: TInt},
			{Name: "lag", Type: TInt}, {Name: "passes", Type: TInt}}),
		build: func(s *Session) [][]Datum {
			m := s.cat.HTAP()
			if m == nil {
				return nil
			}
			stats := m.Stats()
			sort.Slice(stats, func(i, j int) bool { return stats[i].Table < stats[j].Table })
			rows := make([][]Datum, 0, len(stats))
			for _, ls := range stats {
				rows = append(rows, []Datum{
					TextD(ls.Name), IntD(int64(ls.Table)),
					IntD(int64(ls.Chunks)), IntD(ls.ChunkRows),
					IntD(ls.DeltaRows), IntD(ls.DirtyRows),
					IntD(ls.MigratedRows), IntD(int64(ls.Watermark)),
					IntD(int64(ls.Lag)), IntD(ls.Passes),
				})
			}
			return rows
		},
	}
}
