package core

import (
	"fmt"

	"rangesearch/internal/eio"
	"rangesearch/internal/geom"
)

// Durable wraps an Index whose store is an eio.TxStore, running every
// update as one atomic transaction: a crash mid-update recovers (via
// eio.OpenTxStore) to exactly the pre-update or post-update state, never a
// torn structure. Queries bypass the transaction machinery entirely.
//
// The wrapped index must have been created or opened ON the TxStore — the
// decorator only scopes transactions, it cannot retrofit buffering onto
// writes that go elsewhere.
type Durable struct {
	idx Index
	tx  *eio.TxStore
}

var _ Index = (*Durable)(nil)

// NewDurable wraps idx, whose storage lives on tx.
func NewDurable(idx Index, tx *eio.TxStore) *Durable {
	return &Durable{idx: idx, tx: tx}
}

// Insert implements Index as one transaction.
func (d *Durable) Insert(p geom.Point) error {
	return d.tx.Update(func() error { return d.idx.Insert(p) })
}

// Delete implements Index as one transaction.
func (d *Durable) Delete(p geom.Point) (found bool, err error) {
	err = d.tx.Update(func() error {
		var e error
		found, e = d.idx.Delete(p)
		return e
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// Query implements Index, outside any transaction.
func (d *Durable) Query(dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return d.idx.Query(dst, q)
}

// Len implements Index.
func (d *Durable) Len() (int, error) { return d.idx.Len() }

// Destroy implements Index as one transaction: either the whole structure
// is released or none of it is.
func (d *Durable) Destroy() error {
	return d.tx.Update(d.idx.Destroy)
}

// Batch runs fn against the undecorated index inside a single transaction —
// group commit: one WAL record, one fsync schedule, however many updates fn
// performs. If fn returns an error the whole batch rolls back and the error
// is returned. The batch must fit the WAL (eio.ErrTxOverflow otherwise);
// split oversized loads into several batches.
func (d *Durable) Batch(fn func(Index) error) error {
	return d.tx.Update(func() error { return fn(d.idx) })
}

// Tx returns the TxStore the decorator scopes transactions on. Group-
// commit leaders use it to snapshot commit-phase timings (eio.TxTimings)
// around one Batch and attribute WAL-append and fsync time to request
// spans.
func (d *Durable) Tx() *eio.TxStore { return d.tx }

// Sync exposes the store durability barrier for callers that interleave
// non-transactional writes (e.g. bulk builds) with decorated updates.
func (d *Durable) Sync() error {
	if err := d.tx.Sync(); err != nil {
		return fmt.Errorf("core: durable sync: %w", err)
	}
	return nil
}
