package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func salesSchema() Schema {
	return Schema{
		Names: []string{"region", "amount"},
		Types: []ColumnType{String, Int64},
	}
}

func TestSchemaValidation(t *testing.T) {
	bad := map[string]Schema{
		"empty":            {},
		"unknown type":     {Names: []string{"a"}, Types: []ColumnType{99}},
		"empty name":       {Names: []string{""}, Types: []ColumnType{Int64}},
		"comma in name":    {Names: []string{"a,b"}, Types: []ColumnType{Int64}},
		"colon in name":    {Names: []string{"a:b"}, Types: []ColumnType{String}},
		"later empty name": {Names: []string{"a", ""}, Types: []ColumnType{Int64, String}},
	}
	for what, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", what, s)
		}
	}
	if err := salesSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := salesSchema()
	row := Row{StrV("EMEA"), IntV(-42)}
	b, err := EncodeRow(s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(s, b)
	if err != nil || !reflect.DeepEqual(got, row) {
		t.Fatalf("roundtrip = %v, %v", got, err)
	}
	if _, err := EncodeRow(s, Row{IntV(1)}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("arity mismatch = %v", err)
	}
	if _, err := DecodeRow(s, b[:3]); err == nil {
		t.Fatal("truncated row must fail")
	}
}

func TestRowCodecQuick(t *testing.T) {
	s := salesSchema()
	f := func(str string, n int64) bool {
		if len(str) > 4096 {
			return true
		}
		row := Row{StrV(str), IntV(n)}
		b, err := EncodeRow(s, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(s, b)
		return err == nil && reflect.DeepEqual(got, row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuzzSchema derives a valid schema from fuzz bytes: one column per byte
// (at most 16), Int64 for even bytes and String for odd ones.
func fuzzSchema(kinds []byte) Schema {
	if len(kinds) > 16 {
		kinds = kinds[:16]
	}
	var s Schema
	for i, k := range kinds {
		s.Names = append(s.Names, fmt.Sprintf("c%d", i))
		if k%2 == 0 {
			s.Types = append(s.Types, Int64)
		} else {
			s.Types = append(s.Types, String)
		}
	}
	return s
}

// FuzzDecodeRow feeds arbitrary payloads to the row decoder — the only one
// recovery, replica apply and the lane's migrator use. It must never panic,
// and any payload it accepts must re-encode to the same bytes.
func FuzzDecodeRow(f *testing.F) {
	for _, r := range []Row{{StrV("EMEA"), IntV(-42)}, {StrV(""), IntV(0)}} {
		img, err := EncodeRow(salesSchema(), r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte{1, 0}, img)
		f.Add([]byte{1, 0}, img[:len(img)-1])
	}
	f.Add([]byte{0, 1}, []byte{7, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, kinds, img []byte) {
		s := fuzzSchema(kinds)
		row, err := DecodeRow(s, img)
		if err != nil {
			return
		}
		back, err := EncodeRow(s, row)
		if err != nil {
			t.Fatalf("re-encode of a decoded row failed: %v", err)
		}
		if !bytes.Equal(back, img) {
			t.Fatalf("re-encode = %x, decoded from %x", back, img)
		}
	})
}

// FuzzParseSpec feeds arbitrary strings to the parser of the lane record's
// schema spec. Any spec it accepts must render to a spec that parses back
// to the same schema, so a lane survives every restart.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		salesSchema().Spec(), chunkSchema.Spec(), "id:float", "", "a,b:int", "a:b:int", ":int",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok, but its Spec %q does not parse: %v", spec, s.Spec(), err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("spec round trip %+v != %+v", again, s)
		}
	})
}
