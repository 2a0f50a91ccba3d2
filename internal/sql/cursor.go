package sql

import (
	"fmt"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
)

// PlanScope returns the complete set of engine tables a statement will
// access — the information §4.3 says a compiled plan provides under
// Stmt-SI, which makes statement snapshots and cursors eligible for table
// garbage collection. Transaction-control statements return an empty scope.
func (c *Catalog) PlanScope(stmt Statement) ([]ts.TableID, error) {
	name := ""
	switch st := stmt.(type) {
	case *InsertStmt:
		name = st.Table
	case *SelectStmt:
		name = st.Table
	case *UpdateStmt:
		name = st.Table
	case *DeleteStmt:
		name = st.Table
	case *CreateIndexStmt:
		name = st.Table
	default:
		return nil, nil
	}
	t, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	return []ts.TableID{t.ID}, nil
}

// QueryCursor is a SELECT held open by the client: the paper's long-lived
// Stmt-SI blocker. The underlying snapshot is scoped to the compiled plan's
// tables, so the table collector can confine it. Fetch materializes rows
// incrementally (§5.4's incremental query processing).
type QueryCursor struct {
	sess *Session
	t    *TableInfo
	stmt *SelectStmt
	cur  engine.Cursor
	proj []int
	cols []string
}

// OpenQueryCursor compiles a plain (non-aggregate) SELECT and opens a
// cursor over it. ORDER BY and LIMIT are not supported on cursors; the
// result streams in RID order.
func (s *Session) OpenQueryCursor(sqlText string) (*QueryCursor, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: cursors require a SELECT, got %T", stmt)
	}
	if sel.Aggregate != "" || sel.Order != nil || sel.Limit != 0 {
		return nil, fmt.Errorf("sql: cursors support plain SELECT only")
	}
	t, err := s.cat.Table(sel.Table)
	if err != nil {
		return nil, err
	}
	// Validate the projection and WHERE columns at open time.
	var proj []int
	cols := sel.Columns
	if cols == nil {
		for i, c := range t.Columns {
			proj = append(proj, i)
			cols = append(cols, c.Name)
		}
	} else {
		for _, name := range sel.Columns {
			i, err := t.ColumnIndex(name)
			if err != nil {
				return nil, err
			}
			proj = append(proj, i)
		}
	}
	for _, c := range sel.Where {
		if _, err := t.ColumnIndex(c.Column); err != nil {
			return nil, err
		}
	}
	// The engine cursor's snapshot is scoped to the plan's single table —
	// exactly the a-priori scope knowledge table GC relies on.
	cur, err := s.eng.OpenCursor(t.ID)
	if err != nil {
		return nil, err
	}
	return &QueryCursor{sess: s, t: t, stmt: sel, cur: cur, proj: proj, cols: cols}, nil
}

// Columns returns the output column names.
func (qc *QueryCursor) Columns() []string { return qc.cols }

// SnapshotTS returns the cursor's pinned snapshot timestamp.
func (qc *QueryCursor) SnapshotTS() ts.CID { return qc.cur.SnapshotTS() }

// Fetch returns up to n matching rows and the underlying fetch statistics
// (latency, versions traversed — Figures 14/15).
func (qc *QueryCursor) Fetch(n int) ([][]Datum, core.FetchStats, error) {
	var out [][]Datum
	var total core.FetchStats
	for len(out) < n && !qc.cur.Exhausted() {
		imgs, st, err := qc.cur.Fetch(n - len(out))
		total.Rows += st.Rows
		total.Traversed += st.Traversed
		total.Duration += st.Duration
		if err != nil {
			return out, total, err
		}
		for _, img := range imgs {
			row, err := qc.t.decodeRow(img)
			if err != nil {
				return out, total, err
			}
			ok, err := matchRow(qc.t, row, qc.stmt.Where)
			if err != nil {
				return out, total, err
			}
			if !ok {
				continue
			}
			proj := make([]Datum, len(qc.proj))
			for i, p := range qc.proj {
				proj[i] = row[p]
			}
			out = append(out, proj)
		}
	}
	return out, total, nil
}

// Exhausted reports whether the scan has passed the last row.
func (qc *QueryCursor) Exhausted() bool { return qc.cur.Exhausted() }

// Close releases the cursor's snapshot.
func (qc *QueryCursor) Close() { qc.cur.Close() }
