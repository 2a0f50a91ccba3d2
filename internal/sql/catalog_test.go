package sql

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hybridgc/internal/colstore"
	"hybridgc/internal/engine"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// TestRowImagesAreColstoreImages checks that SQL stores rows in colstore's
// layout — the lane decodes them with no translation — and that values
// whose type does not match their column are still rejected with
// ErrTypeMismatch before any bytes are written.
func TestRowImagesAreColstoreImages(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT, region TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (-7, 'emea')")

	ti, err := s.cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	want := colstore.Schema{Names: []string{"id", "region"}, Types: []colstore.ColumnType{colstore.Int64, colstore.String}}
	if !reflect.DeepEqual(ti.schema, want) {
		t.Fatalf("table schema = %+v, want %+v", ti.schema, want)
	}
	var imgs [][]byte
	err = s.cat.Engine().Exec(txn.StmtSI, nil, func(tx engine.Tx) error {
		return tx.Scan(ti.ID, func(_ ts.RID, img []byte) bool {
			imgs = append(imgs, append([]byte(nil), img...))
			return true
		})
	})
	if err != nil || len(imgs) != 1 {
		t.Fatalf("scan = %d images, %v", len(imgs), err)
	}
	row, err := colstore.DecodeRow(want, imgs[0])
	if err != nil || row[0].I != -7 || row[1].S != "emea" {
		t.Fatalf("colstore decode of a SQL image = %v, %v", row, err)
	}

	for _, q := range []string{
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t VALUES ('x', 'y')",
		"INSERT INTO t VALUES (1, 2)",
		"UPDATE t SET region = 3 WHERE id = -7",
		"UPDATE t SET id = 'x'",
	} {
		if _, err := s.Execute(q); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%s: err = %v, want ErrTypeMismatch", q, err)
		}
	}
	if _, err := s.cat.CreateTable("u", []ColumnDef{{Name: "x", Type: 9}}); err == nil {
		t.Error("CreateTable accepted an unknown column type")
	}
}

// FuzzDecodeSchema feeds arbitrary meta-table rows to the schema decoder,
// which reads them at catalog load. It must never panic or allocate by an
// unchecked count, and any row it accepts must re-encode to the same bytes.
func FuzzDecodeSchema(f *testing.F) {
	for _, seed := range [][]byte{
		encodeSchema("t", []ColumnDef{{Name: "a", Type: TInt}, {Name: "b", Type: TText}}),
		encodeSchema("facts", []ColumnDef{{Name: "id", Type: TInt}, {Name: "amount", Type: TInt}, {Name: "region", Type: TText}}),
		encodeSchema("", nil),
		{1, 0, 0, 0, 't', 255, 255, 255, 255},
		{},
	} {
		f.Add(seed)
		if len(seed) > 0 {
			f.Add(seed[:len(seed)-1])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		name, cols, err := decodeSchema(b)
		if err != nil {
			return
		}
		for _, c := range cols {
			if c.Type != TInt && c.Type != TText {
				t.Fatalf("decoded column %q with unknown type %d", c.Name, c.Type)
			}
		}
		if back := encodeSchema(name, cols); !bytes.Equal(back, b) {
			t.Fatalf("re-encode = %x, decoded from %x", back, b)
		}
	})
}
