// Package colstore is the data format of the HTAP lane's column store
// (§2.1): the typed row-image layout every table-space payload of a
// lane-enabled or SQL table uses, the compact schema spec the lane's log
// record carries, and the immutable dictionary-encoded chunks the migrator
// builds (chunk.go). The lane itself — migration, the visibility guard and
// vectorized scans under the shared transaction manager — is internal/htap.
package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// ErrSchemaMismatch reports a row whose arity does not match its schema.
var ErrSchemaMismatch = errors.New("colstore: row does not match schema")

// ColumnType is a column's value type.
type ColumnType uint8

const (
	// Int64 is a 64-bit integer column.
	Int64 ColumnType = iota + 1
	// String is a dictionary-encoded string column.
	String
)

// Schema describes a column table's layout.
type Schema struct {
	Names []string
	Types []ColumnType
}

// Validate checks internal consistency. Column names must survive the Spec
// form, which separates columns with ',' and a name from its type with ':'.
func (s Schema) Validate() error {
	if len(s.Names) == 0 || len(s.Names) != len(s.Types) {
		return fmt.Errorf("colstore: invalid schema: %d names, %d types", len(s.Names), len(s.Types))
	}
	for i, t := range s.Types {
		if t != Int64 && t != String {
			return fmt.Errorf("colstore: unknown column type %d", t)
		}
		if n := s.Names[i]; n == "" || strings.ContainsAny(n, ",:") {
			return fmt.Errorf("colstore: invalid column name %q", n)
		}
	}
	return nil
}

// Value is one typed cell.
type Value struct {
	I int64
	S string
}

// IntV and StrV build cells.
func IntV(v int64) Value  { return Value{I: v} }
func StrV(v string) Value { return Value{S: v} }

// Row is one row's cells in schema order.
type Row []Value

// EncodeRow serializes a row in the version-payload layout: int64 as 8
// little-endian bytes, strings as a 4-byte little-endian length and the
// bytes. SQL rows use the same codec, so their images decode directly into
// column vectors.
func EncodeRow(s Schema, row Row) ([]byte, error) {
	if len(row) != len(s.Types) {
		return nil, fmt.Errorf("%w: %d values for %d columns", ErrSchemaMismatch, len(row), len(s.Types))
	}
	var b []byte
	for i, t := range s.Types {
		switch t {
		case Int64:
			b = binary.LittleEndian.AppendUint64(b, uint64(row[i].I))
		case String:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(row[i].S)))
			b = append(b, row[i].S...)
		}
	}
	return b, nil
}

// DecodeRow parses a version payload back into cells. It is WalkRow with a
// visitor that copies every cell out of the image.
func DecodeRow(s Schema, b []byte) (Row, error) {
	row := make(Row, len(s.Types))
	if err := WalkRow(s, b, func(col int, v int64, str []byte) {
		if s.Types[col] == String {
			row[col].S = string(str)
		} else {
			row[col].I = v
		}
	}); err != nil {
		return nil, err
	}
	return row, nil
}

// WalkRow is the row-image decoder: it checks b against the schema and
// calls visit once per column in schema order, with v set for an Int64
// column and str for a String column. str aliases b, so a visitor that
// keeps only the columns it needs decodes a row without allocating. A
// malformed image stops the walk with an error, possibly after some
// columns were visited, so callers must discard what they saw.
func WalkRow(s Schema, b []byte, visit func(col int, v int64, str []byte)) error {
	off := 0
	for i, t := range s.Types {
		switch t {
		case Int64:
			if off+8 > len(b) {
				return fmt.Errorf("colstore: truncated row at column %d", i)
			}
			visit(i, int64(binary.LittleEndian.Uint64(b[off:])), nil)
			off += 8
		case String:
			if off+4 > len(b) {
				return fmt.Errorf("colstore: truncated row at column %d", i)
			}
			n := int(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if n > len(b)-off {
				return fmt.Errorf("colstore: truncated string at column %d", i)
			}
			visit(i, 0, b[off:off+n])
			off += n
		}
	}
	if off != len(b) {
		return fmt.Errorf("colstore: %d trailing bytes in row", len(b)-off)
	}
	return nil
}

// Spec renders the schema as a compact string ("id:int,name:str"), the form
// the engine's HTAP lane record carries through the log.
func (s Schema) Spec() string {
	var b strings.Builder
	for i, n := range s.Names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte(':')
		if s.Types[i] == Int64 {
			b.WriteString("int")
		} else {
			b.WriteString("str")
		}
	}
	return b.String()
}

// ParseSpec parses the Spec form back into a schema.
func ParseSpec(spec string) (Schema, error) {
	var s Schema
	if spec == "" {
		return s, fmt.Errorf("colstore: empty schema spec")
	}
	for _, part := range strings.Split(spec, ",") {
		name, typ, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return s, fmt.Errorf("colstore: bad schema spec column %q", part)
		}
		s.Names = append(s.Names, name)
		switch typ {
		case "int":
			s.Types = append(s.Types, Int64)
		case "str":
			s.Types = append(s.Types, String)
		default:
			return s, fmt.Errorf("colstore: bad schema spec type %q", typ)
		}
	}
	return s, s.Validate()
}
