package eio

import "fmt"

// This file is the offline, read-only view of a TxStore layout: what the
// rsinspect wal subcommand prints and what replication debugging leans on.
// Nothing here mutates the store.

// AnchorInfo describes one decoded anchor slot.
type AnchorInfo struct {
	Page  PageID `json:"page"`
	Valid bool   `json:"valid"`
	Seq   uint64 `json:"seq,omitempty"`
	LSN   uint64 `json:"lsn,omitempty"`
}

// WALRecordInfo describes one redo record found in the WAL ring.
type WALRecordInfo struct {
	// Page is the index, within the WAL region, of the record's first page.
	Page int `json:"page"`
	// LSN is the record's log sequence number (0 for a torn record).
	LSN uint64 `json:"lsn"`
	// Pages is the number of page images the record carries.
	Pages int `json:"pages"`
	// Bytes is the encoded record length including header and CRC.
	Bytes int `json:"bytes"`
	// PageIDs lists the target page id of each image, in apply order.
	PageIDs []PageID `json:"page_ids,omitempty"`
	// State classifies the record against the winning anchor:
	// "committed-unapplied" (its LSN continues the chain anchor+1, +2, … from
	// the ring's first page — OpenTxStore would redo it), "applied" (the
	// current lap's records at or below the anchor, kept as history),
	// "stale" (a valid record left from an earlier lap, or one recovery
	// will not reach because the chain broke before it) or "torn" (record
	// magic but a failed CRC — a commit died before its commit point; the
	// walk cannot size it and stops there).
	State string `json:"state"`
}

// TxLayerInfo is the full decoded transactional layer of a store.
type TxLayerInfo struct {
	Dir      PageID        `json:"dir"`
	WALPages []PageID      `json:"wal_pages"`
	Capacity int           `json:"capacity"` // max page images per record
	Anchors  [2]AnchorInfo `json:"anchors"`
	// Applied is the winning anchor's LSN: the position of the last
	// checkpoint. The store's durable position — where a log-shipping
	// stream resumes — is Applied + Unapplied.
	Applied uint64 `json:"applied"`
	// Unapplied counts the committed-unapplied records recovery would redo.
	Unapplied int `json:"unapplied"`
	// Records lists every record the walk from the ring's first page found,
	// in ring order. The walk ends at the first position that does not
	// parse: free space, or the torn record listed last.
	Records []WALRecordInfo `json:"records"`
	// TornPages counts WAL-region pages that failed their page checksum.
	TornPages int `json:"torn_pages"`
}

// Healthy reports whether recovery would find nothing damaged: no torn
// record and no checksum-bad WAL page. (Both are what a crash legitimately
// leaves and OpenTxStore discards and repairs; a cleanly closed store has
// neither.)
func (i TxLayerInfo) Healthy() bool {
	n := len(i.Records)
	return i.TornPages == 0 && (n == 0 || i.Records[n-1].State != "torn")
}

// InspectTxLayer reads and decodes the transactional layer rooted at dir
// (the value TxStore.Anchor returned, persisted in the serving manifest)
// without modifying anything. It works on crashed files: torn anchors and
// WAL pages are reported, not repaired.
func InspectTxLayer(inner Store, dir PageID) (TxLayerInfo, error) {
	info := TxLayerInfo{Dir: dir}
	t := newTxStore(inner)
	if err := t.loadDir(dir); err != nil {
		return info, fmt.Errorf("eio: inspect: %w", err)
	}
	info.WALPages = t.walIDs
	info.Capacity = maxTxImages(t.ps, len(t.walIDs))

	seqs, lsns, valid, best := t.readAnchors()
	for i := range info.Anchors {
		info.Anchors[i] = AnchorInfo{Page: t.anchors[i], Valid: valid[i], Seq: seqs[i], LSN: lsns[i]}
	}
	if best >= 0 {
		info.Applied = lsns[best]
	}

	wal, torn := t.readWAL()
	info.TornPages = len(torn)
	next, chain := info.Applied+1, true // the LSN recovery expects, while the chain holds
	var prev uint64
	for off := 0; off < len(wal); {
		lsn, m, err := checkWALRecord(wal[off:], t.ps)
		if err != nil {
			if string(wal[off:off+4]) == walMagic {
				info.Records = append(info.Records, WALRecordInfo{Page: off / t.ps, State: "torn"})
			}
			break
		}
		r := WALRecordInfo{Page: off / t.ps, LSN: lsn, Pages: m, Bytes: walRecordSize(m, t.ps)}
		for i := 0; i < m; i++ {
			id, _ := walImage(wal[off:], t.ps, i)
			r.PageIDs = append(r.PageIDs, id)
		}
		switch {
		case chain && lsn == next:
			r.State = "committed-unapplied"
			next++
			info.Unapplied++
		case chain && info.Unapplied == 0 && lsn <= info.Applied && (off == 0 || lsn == prev+1):
			r.State = "applied"
		default:
			r.State, chain = "stale", false
		}
		prev = lsn
		info.Records = append(info.Records, r)
		off += walRecordPages(m, t.ps) * t.ps
	}
	return info, nil
}
