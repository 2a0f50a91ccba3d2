package wal

import (
	"reflect"
	"testing"

	"hybridgc/internal/mvcc"
)

// FuzzDecodePayload feeds arbitrary bytes to the log-record decoder, the
// input of recovery and of replica apply. It must never panic, and any body
// it accepts must survive an encode/decode round trip unchanged.
func FuzzDecodePayload(f *testing.F) {
	for _, r := range []*Record{
		{Kind: KindDDL, TableID: 7, TableName: "STOCK"},
		{Kind: KindGroup, CID: 42, Part: 1, Parts: 2, Ops: []Op{
			{Op: mvcc.OpInsert, Table: 1, RID: 10, Payload: []byte("hello")},
			{Op: mvcc.OpDelete, Table: 1, RID: 11},
		}},
		{Kind: KindPrepare, XID: 9, Ops: []Op{{Op: mvcc.OpUpdate, Table: 2, RID: 3, Payload: []byte("x")}}},
		{Kind: KindDecision, XID: 9, Commit: true},
		{Kind: KindResolve, XID: 9, Commit: true, CID: 50},
		{Kind: KindHTAPLane, TableID: 3, TableName: "amount:int,region:str", CID: 12},
	} {
		f.Add(r.EncodePayload())
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindGroup), 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodePayload(b)
		if err != nil {
			return
		}
		again, err := DecodePayload(r.EncodePayload())
		if err != nil {
			t.Fatalf("re-encoded record %+v does not decode: %v", r, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("round trip changed the record: %+v -> %+v", r, again)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder, the
// input of recovery and of a replica's bootstrap. It must never panic, and
// any body it accepts must survive an encode/decode round trip unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(EncodeCheckpoint(&Checkpoint{CID: 1}))
	f.Add(EncodeCheckpoint(&Checkpoint{CID: 77, Tables: []CheckpointTable{
		{ID: 1, Name: "STOCK", NextRID: 3, Records: []CheckpointRecord{
			{RID: 1, Image: []byte("a")}, {RID: 2, Image: []byte{}},
		}},
		{ID: 2, Name: "ORDERS", NextRID: 1},
	}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		again, err := DecodeCheckpoint(EncodeCheckpoint(ck))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, ck) {
			t.Fatalf("round trip changed the checkpoint: %+v -> %+v", ck, again)
		}
	})
}
