package eio

import "fmt"

// PageEnsurer is implemented by stores that can materialize an arbitrary
// page id so a subsequent Write succeeds (FileStore.EnsurePage). Replica
// appliers need it: shipped records reference the PRIMARY's page ids, which
// the replica's own allocator has never handed out. Crash recovery needs it
// for the ids of a record that became durable without its allocations.
type PageEnsurer interface {
	EnsurePage(id PageID) error
}

// TxReplica replays shipped redo records into a replica's store through the
// very commit routine TxStore.Commit runs — append at the ring's tail, one
// Sync (the local commit point: the record now survives a replica crash
// without help from the primary), apply unsynced, checkpoint lazily — so a
// replica file is protocol-identical to a primary file: a crashed replica
// recovers with the ordinary OpenTxStore machinery, and a promoted replica
// IS a primary, no conversion step.
//
// Page images go through the apply store — a SnapStore in the serving
// stack — so pinned readers keep their epoch; WAL and anchor writes go
// straight to the inner store, whose pages no query ever reads.
//
// Frees are never shipped (TxStore never logs them), so a replica
// accumulates pages its primary has freed. That is the documented
// leak-never-corrupt trade-off: Scrub reclaims them at promotion.
type TxReplica struct {
	tx *TxStore
}

// OpenTxReplica attaches a replica applier to a store holding a TxStore
// layout (dir is the directory id, the same value TxStore.Anchor returns on
// the primary). It first runs full OpenTxStore crash recovery on inner —
// records the replica persisted locally but had not checkpointed are
// redone — then resumes applying shipped records from the recovered LSN.
// apply receives the data-page writes and may be nil to write straight to
// inner.
func OpenTxReplica(inner, apply Store, dir PageID) (*TxReplica, error) {
	t, err := OpenTxStoreFrames(inner, dir, 0) // no cache: see the note in tx.go
	if err != nil {
		return nil, fmt.Errorf("eio: replica: %w", err)
	}
	if apply != nil {
		t.apply = apply
	}
	return &TxReplica{tx: t}, nil
}

// AppliedLSN returns the LSN of the last applied, locally durable record.
func (r *TxReplica) AppliedLSN() uint64 { return r.tx.AppliedLSN() }

// Recovery reports what the OpenTxStore pass inside OpenTxReplica did.
func (r *TxReplica) Recovery() RecoveryInfo { return r.tx.recovery }

// Dir returns the directory id the applier was opened with.
func (r *TxReplica) Dir() PageID { return r.tx.dir }

// Checkpoint makes the file exact: every applied image durable, the anchor
// at AppliedLSN, nothing left to replay. Promotion and clean shutdown call
// it before handing the file to OpenTxStore.
func (r *TxReplica) Checkpoint() error { return r.tx.Sync() }

// ApplyRecord verifies and applies one shipped redo record. It returns
// (false, nil) for a duplicate (LSN ≤ applied — reconnects resend the tail)
// and an error for a gap or a corrupt record; (true, nil) means the record
// is applied and locally durable.
func (r *TxReplica) ApplyRecord(rec []byte) (bool, error) {
	t := r.tx
	t.mu.Lock()
	defer t.mu.Unlock()
	lsn, m, err := checkWALRecord(rec, t.ps)
	if err != nil {
		return false, fmt.Errorf("eio: replica: shipped record: %w", err)
	}
	if lsn <= t.applied {
		return false, nil
	}
	if lsn != t.applied+1 {
		return false, fmt.Errorf("eio: replica: record lsn %d does not follow applied %d: %w",
			lsn, t.applied, ErrBadRecord)
	}
	if err := t.logAndApply(lsn, m, rec[:walRecordSize(m, t.ps)]); err != nil {
		return false, fmt.Errorf("eio: replica: %w", err)
	}
	return true, nil
}
