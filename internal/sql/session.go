package sql

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Result is one statement's outcome.
type Result struct {
	// Columns and Rows carry SELECT output.
	Columns []string
	Rows    [][]Datum
	// Affected counts rows touched by INSERT/UPDATE/DELETE.
	Affected int
	// Message carries DDL/transaction-control acknowledgements.
	Message string
}

// Session executes SQL against one database. Statements outside an explicit
// transaction autocommit; BEGIN/COMMIT/ROLLBACK control explicit ones, with
// `BEGIN SNAPSHOT` selecting Trans-SI (one snapshot for the whole
// transaction) and plain BEGIN selecting Stmt-SI.
type Session struct {
	cat *Catalog
	eng engine.Engine
	tx  engine.Tx
}

// NewSession opens a session over the catalog.
func NewSession(cat *Catalog) *Session {
	return &Session{cat: cat, eng: cat.Engine()}
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Begin starts an explicit transaction programmatically — the same state
// change as executing BEGIN (or BEGIN SNAPSHOT when transSI is set). The
// wire server maps its BEGIN verb here.
func (s *Session) Begin(transSI bool) error {
	if s.tx != nil {
		return ErrInTransaction
	}
	iso := txn.StmtSI
	if transSI {
		iso = txn.TransSI
	}
	s.tx = s.eng.Begin(iso)
	return nil
}

// BeginShard starts an explicit transaction pinned to one shard — the
// single-shard fast path the shard-aware client routes through. On a
// single-node engine only shard 0 is valid.
func (s *Session) BeginShard(shard int, transSI bool) error {
	if s.tx != nil {
		return ErrInTransaction
	}
	iso := txn.StmtSI
	if transSI {
		iso = txn.TransSI
	}
	tx, err := s.eng.BeginShard(shard, iso)
	if err != nil {
		return err
	}
	s.tx = tx
	return nil
}

// Commit finishes the explicit transaction.
func (s *Session) Commit() error {
	if s.tx == nil {
		return ErrNoTransaction
	}
	err := s.tx.Commit()
	s.tx = nil
	return err
}

// Rollback aborts the explicit transaction.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return ErrNoTransaction
	}
	s.tx.Abort()
	s.tx = nil
	return nil
}

// Tx exposes the open explicit transaction (nil outside one), so callers
// holding a session — the wire server's record-level verbs — can run engine
// operations inside the same transaction SQL statements use.
func (s *Session) Tx() engine.Tx { return s.tx }

// Close aborts any open transaction. A session is not usable afterwards
// only by convention; it holds no other resources.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
}

// Execute parses, compiles and runs one statement.
func (s *Session) Execute(sqlText string) (*Result, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return s.Run(stmt)
}

// Run executes a parsed statement.
func (s *Session) Run(stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *BeginStmt:
		if err := s.Begin(st.TransSI); err != nil {
			return nil, err
		}
		return &Result{Message: "BEGIN " + s.tx.Isolation().String()}, nil
	case *CommitStmt:
		if err := s.Commit(); err != nil {
			return nil, err
		}
		return &Result{Message: "COMMIT"}, nil
	case *RollbackStmt:
		if err := s.Rollback(); err != nil {
			return nil, err
		}
		return &Result{Message: "ROLLBACK"}, nil
	case *CreateTableStmt:
		if _, err := s.cat.CreateTable(st.Name, st.Columns); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("CREATE TABLE %s", st.Name)}, nil
	case *CreateIndexStmt:
		return s.createIndex(st)
	default:
		return s.runDML(stmt)
	}
}

// runDML executes a data statement inside the session transaction or as an
// autocommit transaction.
func (s *Session) runDML(stmt Statement) (*Result, error) {
	if s.tx != nil {
		return s.exec(s.tx, stmt)
	}
	var res *Result
	err := s.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		var err error
		res, err = s.exec(tx, stmt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// exec dispatches one compiled data statement on tx.
func (s *Session) exec(tx engine.Tx, stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *InsertStmt:
		return s.execInsert(tx, st)
	case *SelectStmt:
		return s.execSelect(tx, st)
	case *UpdateStmt:
		return s.execUpdate(tx, st)
	case *DeleteStmt:
		return s.execDelete(tx, st)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

func (s *Session) execInsert(tx engine.Tx, st *InsertStmt) (*Result, error) {
	t, err := s.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	img, err := t.encodeRow(st.Values)
	if err != nil {
		return nil, err
	}
	rid, err := tx.Insert(t.ID, img)
	if err != nil {
		return nil, err
	}
	t.eachIndex(func(ix anyIndex) {
		ix.Add(st.Values[ix.ColIdx()], rid)
	})
	return &Result{Affected: 1}, nil
}

// matchRow evaluates an AND-chain of equality conditions.
func matchRow(t *TableInfo, row []Datum, conds []Condition) (bool, error) {
	for _, c := range conds {
		i, err := t.ColumnIndex(c.Column)
		if err != nil {
			return false, err
		}
		if row[i].Type != c.Value.Type {
			return false, fmt.Errorf("%w: comparing %s to %s on %s.%s",
				ErrTypeMismatch, row[i].Type, c.Value.Type, t.Name, c.Column)
		}
		var ok bool
		switch c.Op {
		case OpLt:
			ok = row[i].Less(c.Value)
		case OpGt:
			ok = c.Value.Less(row[i])
		default:
			ok = row[i].Equal(c.Value)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// pickIndex finds an index able to serve one condition of the WHERE chain,
// returning its candidate set.
func pickIndex(t *TableInfo, conds []Condition) ([]ts.RID, bool) {
	for _, c := range conds {
		ix := t.Index(c.Column)
		if ix == nil {
			continue
		}
		if cands, ok := ix.CandidatesFor(c); ok {
			return cands, true
		}
	}
	return nil, false
}

// forEachMatch drives the access path: index candidates with verification
// when available, a full scan otherwise. fn receives decoded rows that
// satisfy the WHERE chain.
func (s *Session) forEachMatch(tx engine.Tx, t *TableInfo, conds []Condition, fn func(rid ts.RID, row []Datum) (bool, error)) error {
	// Validate condition columns and literal types up front so typos and
	// mismatches fail cleanly even when no row would match.
	for _, c := range conds {
		ci, err := t.ColumnIndex(c.Column)
		if err != nil {
			return err
		}
		if t.Columns[ci].Type != c.Value.Type {
			return fmt.Errorf("%w: comparing %s column %s.%s to a %s literal",
				ErrTypeMismatch, t.Columns[ci].Type, t.Name, c.Column, c.Value.Type)
		}
	}
	if cands, ok := pickIndex(t, conds); ok {
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		for _, rid := range cands {
			img, err := tx.Get(t.ID, rid)
			if errors.Is(err, core.ErrRecordNotFound) {
				continue // stale candidate: aborted, deleted, or not yet visible
			}
			if err != nil {
				return err
			}
			row, err := t.decodeRow(img)
			if err != nil {
				return err
			}
			ok, err := matchRow(t, row, conds)
			if err != nil {
				return err
			}
			if !ok {
				continue // stale candidate: value superseded
			}
			cont, err := fn(rid, row)
			if err != nil || !cont {
				return err
			}
		}
		return nil
	}
	var inner error
	err := tx.Scan(t.ID, func(rid ts.RID, img []byte) bool {
		row, err := t.decodeRow(img)
		if err != nil {
			inner = err
			return false
		}
		ok, err := matchRow(t, row, conds)
		if err != nil {
			inner = err
			return false
		}
		if !ok {
			return true
		}
		cont, err := fn(rid, row)
		if err != nil {
			inner = err
			return false
		}
		return cont
	})
	if inner != nil {
		return inner
	}
	return err
}

// rowIter feeds matching rows (WHERE already applied) to fn until it
// returns false or errors.
type rowIter func(fn func(rid ts.RID, row []Datum) (bool, error)) error

func (s *Session) execSelect(tx engine.Tx, st *SelectStmt) (*Result, error) {
	t, err := s.cat.Table(st.Table)
	if err != nil {
		// Monitoring views resolve when no user table shadows the name.
		if v, ok := lookupView(st.Table); ok {
			all := v.build(s)
			iter := func(fn func(ts.RID, []Datum) (bool, error)) error {
				for _, c := range st.Where {
					ci, err := v.info.ColumnIndex(c.Column)
					if err != nil {
						return err
					}
					if v.info.Columns[ci].Type != c.Value.Type {
						return fmt.Errorf("%w: comparing %s column %s to a %s literal",
							ErrTypeMismatch, v.info.Columns[ci].Type, c.Column, c.Value.Type)
					}
				}
				for i, row := range all {
					ok, err := matchRow(v.info, row, st.Where)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					cont, err := fn(ts.RID(i+1), row)
					if err != nil || !cont {
						return err
					}
				}
				return nil
			}
			return s.selectPipeline(v.info, iter, st)
		}
		return nil, err
	}
	if res, ok, err := s.laneAggregate(t, st); ok {
		return res, err
	}
	iter := func(fn func(ts.RID, []Datum) (bool, error)) error {
		return s.forEachMatch(tx, t, st.Where, fn)
	}
	return s.selectPipeline(t, iter, st)
}

// selectPipeline runs aggregation / projection / ORDER BY / LIMIT over the
// iterator.
func (s *Session) selectPipeline(t *TableInfo, iter rowIter, st *SelectStmt) (*Result, error) {
	if st.Aggregate != "" {
		return s.aggregateRows(t, iter, st)
	}

	// Projection.
	proj := make([]int, 0, len(st.Columns))
	cols := st.Columns
	if cols == nil {
		for i, c := range t.Columns {
			proj = append(proj, i)
			cols = append(cols, c.Name)
		}
	} else {
		for _, name := range st.Columns {
			i, err := t.ColumnIndex(name)
			if err != nil {
				return nil, err
			}
			proj = append(proj, i)
		}
	}
	var orderIdx int
	if st.Order != nil {
		var err error
		orderIdx, err = t.ColumnIndex(st.Order.Column)
		if err != nil {
			return nil, err
		}
	}
	type rowPair struct {
		full []Datum
		out  []Datum
	}
	var matched []rowPair
	err := iter(func(_ ts.RID, row []Datum) (bool, error) {
		out := make([]Datum, len(proj))
		for i, p := range proj {
			out[i] = row[p]
		}
		matched = append(matched, rowPair{full: row, out: out})
		// Early LIMIT cutoff only without ORDER BY.
		if st.Order == nil && st.Limit > 0 && len(matched) >= st.Limit {
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if st.Order != nil {
		sort.SliceStable(matched, func(i, j int) bool {
			less := matched[i].full[orderIdx].Less(matched[j].full[orderIdx])
			if st.Order.Desc {
				return matched[j].full[orderIdx].Less(matched[i].full[orderIdx])
			}
			return less
		})
		if st.Limit > 0 && len(matched) > st.Limit {
			matched = matched[:st.Limit]
		}
	}
	res := &Result{Columns: cols}
	for _, m := range matched {
		res.Rows = append(res.Rows, m.out)
	}
	return res, nil
}

// aggCell accumulates one aggregate group on the row path; the same four
// accumulators the column lane keeps, so both paths produce identical
// results.
type aggCell struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

func (a *aggCell) add(v int64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.count++
	a.sum += v
}

func (a *aggCell) result(agg string) int64 {
	switch agg {
	case "SUM":
		return a.sum
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return a.count
	}
}

// aggregateRows computes COUNT/SUM/MIN/MAX (optionally GROUP BY) over the
// row iterator — the fallback when no column lane serves the query.
func (s *Session) aggregateRows(t *TableInfo, iter rowIter, st *SelectStmt) (*Result, error) {
	ci := -1
	if st.AggColumn != "" {
		var err error
		ci, err = t.ColumnIndex(st.AggColumn)
		if err != nil {
			return nil, err
		}
		if t.Columns[ci].Type != TInt {
			return nil, fmt.Errorf("%w: %s over %s column %s",
				ErrTypeMismatch, st.Aggregate, t.Columns[ci].Type, st.AggColumn)
		}
	}
	aggName := strings.ToLower(st.Aggregate)
	if st.GroupBy == "" {
		var a aggCell
		err := iter(func(_ ts.RID, row []Datum) (bool, error) {
			var v int64
			if ci >= 0 {
				v = row[ci].I
			}
			a.add(v)
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		return &Result{Columns: []string{aggName}, Rows: [][]Datum{{IntD(a.result(st.Aggregate))}}}, nil
	}
	gi, err := t.ColumnIndex(st.GroupBy)
	if err != nil {
		return nil, err
	}
	cells := map[Datum]*aggCell{}
	var order []Datum
	err = iter(func(_ ts.RID, row []Datum) (bool, error) {
		key := row[gi]
		c := cells[key]
		if c == nil {
			c = &aggCell{}
			cells[key] = c
			order = append(order, key)
		}
		var v int64
		if ci >= 0 {
			v = row[ci].I
		}
		c.add(v)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Less(order[j]) })
	res := &Result{Columns: []string{st.GroupBy, aggName}}
	for _, key := range order {
		res.Rows = append(res.Rows, []Datum{key, IntD(cells[key].result(st.Aggregate))})
	}
	return res, nil
}

func (s *Session) execUpdate(tx engine.Tx, st *UpdateStmt) (*Result, error) {
	t, err := s.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	// Validate SET columns and types.
	setIdx := make([]int, len(st.Set))
	for i, set := range st.Set {
		ci, err := t.ColumnIndex(set.Column)
		if err != nil {
			return nil, err
		}
		if t.Columns[ci].Type != set.Value.Type {
			return nil, fmt.Errorf("%w: SET %s = %s value", ErrTypeMismatch, set.Column, set.Value.Type)
		}
		setIdx[i] = ci
	}
	// Collect matches first, then write: writing during an index-driven scan
	// of the same table is fine, but collecting keeps Affected exact.
	type match struct {
		rid ts.RID
		row []Datum
	}
	var ms []match
	err = s.forEachMatch(tx, t, st.Where, func(rid ts.RID, row []Datum) (bool, error) {
		ms = append(ms, match{rid: rid, row: append([]Datum(nil), row...)})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		for i, set := range st.Set {
			m.row[setIdx[i]] = set.Value
		}
		img, err := t.encodeRow(m.row)
		if err != nil {
			return nil, err
		}
		if err := tx.Update(t.ID, m.rid, img); err != nil {
			return nil, err
		}
		t.eachIndex(func(ix anyIndex) {
			ix.Add(m.row[ix.ColIdx()], m.rid)
		})
	}
	return &Result{Affected: len(ms)}, nil
}

func (s *Session) execDelete(tx engine.Tx, st *DeleteStmt) (*Result, error) {
	t, err := s.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	var rids []ts.RID
	err = s.forEachMatch(tx, t, st.Where, func(rid ts.RID, _ []Datum) (bool, error) {
		rids = append(rids, rid)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := tx.Delete(t.ID, rid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(rids)}, nil
}

// createIndex registers the index and backfills it from the current data.
func (s *Session) createIndex(st *CreateIndexStmt) (*Result, error) {
	t, err := s.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	ci, err := t.ColumnIndex(st.Column)
	if err != nil {
		return nil, err
	}
	var ix anyIndex
	if st.Ordered {
		ix = NewOrderedIndex(strings.ToLower(st.Column), ci)
	} else {
		ix = NewIndex(strings.ToLower(st.Column), ci)
	}
	if !t.addIndex(ix) {
		return nil, fmt.Errorf("sql: index on %s(%s) already exists", t.Name, st.Column)
	}
	err = s.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		return tx.Scan(t.ID, func(rid ts.RID, img []byte) bool {
			if row, err := t.decodeRow(img); err == nil {
				ix.Add(row[ci], rid)
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("CREATE INDEX ON %s(%s)", t.Name, st.Column)}, nil
}
