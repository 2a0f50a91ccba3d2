package sql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/engine"
	"hybridgc/internal/htap"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Errors returned by the SQL layer.
var (
	ErrUnknownTable  = errors.New("sql: unknown table")
	ErrUnknownColumn = errors.New("sql: unknown column")
	ErrTypeMismatch  = errors.New("sql: type mismatch")
	ErrNoTransaction = errors.New("sql: no transaction in progress")
	ErrInTransaction = errors.New("sql: transaction already in progress")
)

// metaTable is the engine table holding serialized schemas, so SQL-created
// tables survive recovery along with their data.
const metaTable = "__sql_schema"

// TableInfo is one SQL table's compiled schema.
type TableInfo struct {
	Name    string
	ID      ts.TableID
	Columns []ColumnDef

	// schema is the row-image layout in colstore's format: the codec SQL
	// rows are written and read with, and the layout EnableHTAP hands the
	// column lane. Its column names are lower-cased, as the parser
	// normalizes them.
	schema colstore.Schema
	colIdx map[string]int

	mu      sync.RWMutex
	indexes map[string]anyIndex
}

// ColumnIndex resolves a column name to its position.
func (t *TableInfo) ColumnIndex(name string) (int, error) {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, t.Name, name)
}

// Index returns the index on column, or nil.
func (t *TableInfo) Index(column string) anyIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[strings.ToLower(column)]
}

// addIndex registers an index; returns false if one already exists.
func (t *TableInfo) addIndex(ix anyIndex) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.indexes[ix.ColumnName()]; dup {
		return false
	}
	t.indexes[ix.ColumnName()] = ix
	return true
}

// eachIndex visits the table's indexes.
func (t *TableInfo) eachIndex(fn func(anyIndex)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		fn(ix)
	}
}

// Catalog maps SQL schemas onto engine tables and persists them through the
// meta table.
type Catalog struct {
	eng    engine.Engine
	metaID ts.TableID

	mu     sync.RWMutex
	tables map[string]*TableInfo
	htap   *htap.Manager
}

// NewCatalog builds the SQL catalog over a single-node database — the
// compatibility form of NewCatalogEngine.
func NewCatalog(db *core.DB) (*Catalog, error) {
	return NewCatalogEngine(engine.NewSingle(db))
}

// NewCatalogEngine builds (or re-attaches, after recovery) the SQL catalog
// over an engine. On a read-only replica the meta table cannot be created
// locally; it arrives through replication, so attachment is deferred until
// Refresh (or a Table miss) finds it.
func NewCatalogEngine(eng engine.Engine) (*Catalog, error) {
	c := &Catalog{eng: eng, tables: make(map[string]*TableInfo)}
	if id := eng.TableID(metaTable); id != 0 {
		c.metaID = id
		if err := c.loadSchemas(); err != nil {
			return nil, err
		}
		return c, nil
	}
	if eng.ReadOnly() {
		return c, nil // metaID 0: attach lazily once replicated
	}
	id, err := eng.CreateTable(metaTable)
	if err != nil {
		return nil, err
	}
	c.metaID = id
	return c, nil
}

// Refresh re-reads the meta table, picking up schemas that arrived since the
// catalog was built — the normal path on a replica, where both the meta
// table and its rows materialize through the replication stream. Known
// tables are kept (their index state lives on the TableInfo).
func (c *Catalog) Refresh() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.metaID == 0 {
		id := c.eng.TableID(metaTable)
		if id == 0 {
			return nil // nothing replicated yet
		}
		c.metaID = id
	}
	return c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		return tx.Scan(c.metaID, func(_ ts.RID, img []byte) bool {
			name, cols, err := decodeSchema(img)
			if err != nil {
				return true
			}
			key := strings.ToLower(name)
			if _, known := c.tables[key]; known {
				return true
			}
			id := c.eng.TableID(name)
			if id == 0 {
				return true
			}
			c.tables[key] = newTableInfo(name, id, cols)
			return true
		})
	})
}

// loadSchemas re-attaches schemas after recovery.
func (c *Catalog) loadSchemas() error {
	return c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		return tx.Scan(c.metaID, func(_ ts.RID, img []byte) bool {
			name, cols, err := decodeSchema(img)
			if err != nil {
				return true // skip unreadable entries; surfaced via missing table
			}
			id := c.eng.TableID(name)
			if id == 0 {
				return true
			}
			c.tables[strings.ToLower(name)] = newTableInfo(name, id, cols)
			return true
		})
	})
}

func newTableInfo(name string, id ts.TableID, cols []ColumnDef) *TableInfo {
	ti := &TableInfo{Name: name, ID: id, Columns: cols,
		colIdx: make(map[string]int), indexes: make(map[string]anyIndex)}
	for i, c := range cols {
		name := strings.ToLower(c.Name)
		ti.colIdx[name] = i
		ti.schema.Names = append(ti.schema.Names, name)
		if c.Type == TInt {
			ti.schema.Types = append(ti.schema.Types, colstore.Int64)
		} else {
			ti.schema.Types = append(ti.schema.Types, colstore.String)
		}
	}
	return ti
}

// CreateTable registers a SQL table: an engine table plus a schema row in
// the meta table.
func (c *Catalog) CreateTable(name string, cols []ColumnDef) (*TableInfo, error) {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("sql: table %q already exists", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("sql: duplicate column %q", col.Name)
		}
		if col.Type != TInt && col.Type != TText {
			return nil, fmt.Errorf("sql: column %q has unknown type %d", col.Name, col.Type)
		}
		seen[col.Name] = true
	}
	id, err := c.eng.CreateTable(name)
	if err != nil {
		return nil, err
	}
	err = c.eng.Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		_, err := tx.Insert(c.metaID, encodeSchema(name, cols))
		return err
	})
	if err != nil {
		return nil, err
	}
	ti := newTableInfo(name, id, cols)
	c.tables[key] = ti
	return ti, nil
}

// Table resolves a SQL table by name. On a read-only database a miss
// triggers a Refresh first: the schema may have replicated in since the
// last lookup.
func (c *Catalog) Table(name string) (*TableInfo, error) {
	key := strings.ToLower(name)
	c.mu.RLock()
	t, ok := c.tables[key]
	c.mu.RUnlock()
	if ok {
		return t, nil
	}
	if c.eng.ReadOnly() {
		if err := c.Refresh(); err == nil {
			c.mu.RLock()
			t, ok = c.tables[key]
			c.mu.RUnlock()
			if ok {
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownTable, name)
}

// Tables lists the SQL tables (sorted by name is not guaranteed).
func (c *Catalog) Tables() []*TableInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableInfo, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// Engine returns the underlying engine.
func (c *Catalog) Engine() engine.Engine { return c.eng }

// DB returns the underlying single-node engine (shard 0 on a sharded one) —
// the concrete handle monitoring helpers and tests use.
func (c *Catalog) DB() *core.DB { return c.eng.Shard(0) }

// --- row and schema codecs ---

// encodeRow checks each datum's type against its column — the values come
// from outside the program — and serializes the row with colstore's codec.
func (t *TableInfo) encodeRow(row []Datum) ([]byte, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrTypeMismatch, len(row), len(t.Columns))
	}
	cells := make(colstore.Row, len(row))
	for i, col := range t.Columns {
		if row[i].Type != col.Type {
			return nil, fmt.Errorf("%w: column %s is %s, value is %s",
				ErrTypeMismatch, col.Name, col.Type, row[i].Type)
		}
		cells[i] = colstore.Value{I: row[i].I, S: row[i].S}
	}
	return colstore.EncodeRow(t.schema, cells)
}

// decodeRow parses a stored row image with colstore's codec.
func (t *TableInfo) decodeRow(b []byte) ([]Datum, error) {
	cells, err := colstore.DecodeRow(t.schema, b)
	if err != nil {
		return nil, fmt.Errorf("sql: table %s: %w", t.Name, err)
	}
	row := make([]Datum, len(cells))
	for i, c := range cells {
		row[i] = Datum{Type: t.Columns[i].Type, I: c.I, S: c.S}
	}
	return row, nil
}

// encodeSchema serializes a schema row for the meta table.
func encodeSchema(name string, cols []ColumnDef) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	for _, c := range cols {
		b = append(b, byte(c.Type))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Name)))
		b = append(b, c.Name...)
	}
	return b
}

// decodeSchema parses a schema row.
func decodeSchema(b []byte) (string, []ColumnDef, error) {
	off := 0
	readStr := func() (string, bool) {
		if off+4 > len(b) {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+n > len(b) {
			return "", false
		}
		s := string(b[off : off+n])
		off += n
		return s, true
	}
	name, ok := readStr()
	if !ok {
		return "", nil, errors.New("sql: corrupt schema row")
	}
	if off+4 > len(b) {
		return "", nil, errors.New("sql: corrupt schema row")
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	// Each column takes at least a type byte and a name length, so a count
	// the remaining bytes cannot hold is corrupt, not an allocation size.
	if n > (len(b)-off)/5 {
		return "", nil, errors.New("sql: corrupt schema row")
	}
	cols := make([]ColumnDef, 0, n)
	for i := 0; i < n; i++ {
		if off+1 > len(b) {
			return "", nil, errors.New("sql: corrupt schema row")
		}
		ct := ColType(b[off])
		if ct != TInt && ct != TText {
			return "", nil, fmt.Errorf("sql: unknown column type %d in schema row", ct)
		}
		off++
		cn, ok := readStr()
		if !ok {
			return "", nil, errors.New("sql: corrupt schema row")
		}
		cols = append(cols, ColumnDef{Name: cn, Type: ct})
	}
	if off != len(b) {
		return "", nil, errors.New("sql: trailing bytes in schema row")
	}
	return name, cols, nil
}
