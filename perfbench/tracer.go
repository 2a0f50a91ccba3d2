package main

import (
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
)

// Store operations the TPC-C driver issues through tpcc.Backend/Txn.
const (
	opGet = iota
	opUpdate
	opInsert
	opDelete
	opScan
	opBegin
	opCommit
	opAbort
	numOps
)

// recorder collects the spans of one terminal's store calls: the duration
// of every call made while on is set, per operation. A recorder belongs to
// one terminal goroutine; others read it only after that goroutine ends.
type recorder struct {
	on    bool
	calls [numOps]durations
	// txnCalls and txnCallTime cover the calls of the current transaction
	// profile (one Worker.RunOne), so its self time can be derived.
	txnCalls    int
	txnCallTime time.Duration
	// transient is set when an attempt of the current profile failed with a
	// retryable error; if the profile then aborts, its retries ran out.
	transient bool
}

func (r *recorder) startProfile() {
	r.txnCalls, r.txnCallTime, r.transient = 0, 0, false
}

// span records one call that started at t0 (zero when tracing is off).
func (r *recorder) span(op int, t0 time.Time, err error) {
	if err != nil && core.IsTransient(err) {
		r.transient = true
	}
	if !r.on {
		return
	}
	d := time.Since(t0)
	r.calls[op] = append(r.calls[op], d)
	r.txnCalls++
	r.txnCallTime += d
}

// start returns the span start time, or the zero time when tracing is off
// so the untraced path pays no clock read.
func (r *recorder) start() time.Time {
	if !r.on {
		return time.Time{}
	}
	return time.Now()
}

// tracedBackend wraps a driver backend and times each call into it.
type tracedBackend struct {
	tpcc.Backend
	rec *recorder
}

func (b *tracedBackend) Begin(snapshot bool) (tpcc.Txn, error) {
	t0 := b.rec.start()
	tx, err := b.Backend.Begin(snapshot)
	b.rec.span(opBegin, t0, err)
	if err != nil {
		return nil, err
	}
	return &tracedTxn{tx: tx, rec: b.rec}, nil
}

// tracedTxn times each call of one transaction.
type tracedTxn struct {
	tx  tpcc.Txn
	rec *recorder
}

func (t *tracedTxn) Get(tid ts.TableID, rid ts.RID) ([]byte, error) {
	t0 := t.rec.start()
	img, err := t.tx.Get(tid, rid)
	t.rec.span(opGet, t0, err)
	return img, err
}

func (t *tracedTxn) Insert(tid ts.TableID, img []byte) (ts.RID, error) {
	t0 := t.rec.start()
	rid, err := t.tx.Insert(tid, img)
	t.rec.span(opInsert, t0, err)
	return rid, err
}

// InsertAt forwards the driver's placement hint when the wrapped
// transaction takes one, as the driver's own insert path does.
func (t *tracedTxn) InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error) {
	h, ok := t.tx.(interface {
		InsertAt(tid ts.TableID, img []byte, hint int) (ts.RID, error)
	})
	if !ok {
		return t.Insert(tid, img)
	}
	t0 := t.rec.start()
	rid, err := h.InsertAt(tid, img, hint)
	t.rec.span(opInsert, t0, err)
	return rid, err
}

func (t *tracedTxn) Update(tid ts.TableID, rid ts.RID, img []byte) error {
	t0 := t.rec.start()
	err := t.tx.Update(tid, rid, img)
	t.rec.span(opUpdate, t0, err)
	return err
}

func (t *tracedTxn) Delete(tid ts.TableID, rid ts.RID) error {
	t0 := t.rec.start()
	err := t.tx.Delete(tid, rid)
	t.rec.span(opDelete, t0, err)
	return err
}

func (t *tracedTxn) Scan(tid ts.TableID, fn func(rid ts.RID, img []byte) bool) error {
	t0 := t.rec.start()
	err := t.tx.Scan(tid, fn)
	t.rec.span(opScan, t0, err)
	return err
}

func (t *tracedTxn) Commit() error {
	t0 := t.rec.start()
	err := t.tx.Commit()
	t.rec.span(opCommit, t0, err)
	return err
}

func (t *tracedTxn) Abort() {
	t0 := t.rec.start()
	t.tx.Abort()
	t.rec.span(opAbort, t0, nil)
}
