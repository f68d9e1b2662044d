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

// WALRecordInfo describes the redo record currently occupying the WAL
// region. TxStore keeps exactly one record (each commit overwrites the
// region), so "the WAL" is this record plus the two anchors that interpret
// it.
type WALRecordInfo struct {
	// Valid reports whether the region parses as a checksummed record.
	Valid bool `json:"valid"`
	// LSN is the record's log sequence number (0 when invalid).
	LSN uint64 `json:"lsn"`
	// Pages is the number of page images the record carries.
	Pages int `json:"pages"`
	// Bytes is the encoded record length including header and CRC.
	Bytes int `json:"bytes"`
	// PageIDs lists the target page id of each image, in apply order.
	PageIDs []PageID `json:"page_ids,omitempty"`
	// State classifies the record against the winning anchor:
	// "applied" (lsn ≤ anchor LSN — already replayed, kept as history),
	// "committed-unapplied" (lsn = anchor+1 — OpenTxStore would redo it),
	// "future" (lsn > anchor+1 — impossible in a healthy file),
	// "torn" (checksum or parse failure — a commit died before its commit
	// point) or "empty" (zeroed region of a store that never committed).
	State string `json:"state"`
	// TornPages counts WAL-region pages that failed their page checksum.
	TornPages int `json:"torn_pages"`
}

// TxLayerInfo is the full decoded transactional layer of a store.
type TxLayerInfo struct {
	Dir      PageID        `json:"dir"`
	WALPages []PageID      `json:"wal_pages"`
	Capacity int           `json:"capacity"` // max page images per record
	Anchors  [2]AnchorInfo `json:"anchors"`
	// Applied is the winning anchor's LSN — the durable position of the
	// store, and the position a log-shipping stream resumes from.
	Applied uint64        `json:"applied"`
	Record  WALRecordInfo `json:"record"`
}

// InspectTxLayer reads and decodes the transactional layer rooted at dir
// (the value TxStore.Anchor returned, persisted in the serving manifest)
// without modifying anything. It works on crashed files: torn anchors and
// WAL pages are reported, not repaired.
func InspectTxLayer(inner Store, dir PageID) (TxLayerInfo, error) {
	var info TxLayerInfo
	info.Dir = dir
	t := &TxStore{inner: inner, ps: inner.PageSize(), dir: dir}
	rs := NewRecordStore(inner)
	raw, err := rs.Get(dir, nil)
	if err != nil {
		return info, fmt.Errorf("eio: inspect: read directory %d: %w", dir, err)
	}
	if err := t.decodeDir(raw); err != nil {
		return info, fmt.Errorf("eio: inspect: %w", err)
	}
	info.WALPages = t.walIDs
	info.Capacity = maxTxImages(t.ps, len(t.walIDs))

	buf := make([]byte, t.ps)
	best := -1
	for i := 0; i < 2; i++ {
		info.Anchors[i].Page = t.anchors[i]
		if err := inner.Read(t.anchors[i], buf); err != nil {
			continue
		}
		seq, lsn, err := decodeAnchor(buf)
		if err != nil {
			continue
		}
		info.Anchors[i] = AnchorInfo{Page: t.anchors[i], Valid: true, Seq: seq, LSN: lsn}
		if best < 0 || seq > info.Anchors[best].Seq {
			best = i
		}
	}
	if best >= 0 {
		info.Applied = info.Anchors[best].LSN
	}

	wal := make([]byte, 0, len(t.walIDs)*t.ps)
	empty := true
	for _, id := range t.walIDs {
		if err := inner.Read(id, buf); err != nil {
			info.Record.TornPages++
			wal = append(wal, make([]byte, t.ps)...)
			continue
		}
		for _, b := range buf[:t.ps] {
			if b != 0 {
				empty = false
				break
			}
		}
		wal = append(wal, buf[:t.ps]...)
	}

	lsn, writes, err := decodeWALRecord(wal, t.ps)
	switch {
	case err == nil:
		info.Record.Valid = true
		info.Record.LSN = lsn
		info.Record.Pages = len(writes)
		info.Record.Bytes = walHdrSize + len(writes)*(8+t.ps) + walCRCSize
		for _, w := range writes {
			info.Record.PageIDs = append(info.Record.PageIDs, w.id)
		}
		switch {
		case best < 0:
			info.Record.State = "committed-unapplied" // no anchor to compare against
		case lsn <= info.Applied:
			info.Record.State = "applied"
		case lsn == info.Applied+1:
			info.Record.State = "committed-unapplied"
		default:
			info.Record.State = "future"
		}
	case empty && info.Record.TornPages == 0:
		info.Record.State = "empty"
	default:
		info.Record.State = "torn"
	}
	return info, nil
}
