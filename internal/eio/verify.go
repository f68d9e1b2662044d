package eio

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// SuperSlotStatus describes one superblock copy found by VerifyFile.
type SuperSlotStatus struct {
	// Valid reports whether the slot's magic and checksum verify.
	Valid bool `json:"valid"`
	// Seq is the slot's sequence number (0 for invalid slots).
	Seq uint64 `json:"seq"`
}

// VerifyReport is the result of an offline integrity scan of a store file.
type VerifyReport struct {
	// Version is the format version (always 2; a v1 file is rejected).
	Version int `json:"version"`
	// PageSize is the committed page size.
	PageSize int `json:"page_size"`
	// NPages is the number of page slots the superblock commits to,
	// including the reserved page 0.
	NPages uint64 `json:"npages"`
	// Super describes both superblock slots.
	Super [2]SuperSlotStatus `json:"super"`
	// ActiveSlot is the slot recovery would use.
	ActiveSlot int `json:"active_slot"`
	// BadPages lists pages whose checksum failed.
	BadPages []PageID `json:"bad_pages,omitempty"`
	// FreePages is the number of pages with the free flag set.
	FreePages uint64 `json:"free_pages"`
	// NFree is the free-page count the superblock claims.
	NFree uint64 `json:"nfree"`
	// FreeReachable is how many pages the free-list walk actually
	// reached before terminating.
	FreeReachable uint64 `json:"free_reachable"`
	// FreeListNote is a human-readable description of free-list damage
	// or drift, empty when the list is fully consistent.
	FreeListNote string `json:"free_list_note,omitempty"`
}

// Damaged reports whether the scan found integrity problems serious
// enough that reads could fail or data could be lost: checksum-bad pages
// or an unusable superblock. Free-list drift (leaked pages after a crash)
// is reported in FreeListNote but is not damage — no committed data is at
// risk.
func (r *VerifyReport) Damaged() bool {
	return len(r.BadPages) > 0 || (!r.Super[0].Valid && !r.Super[1].Valid)
}

// String formats the report for human consumption.
func (r *VerifyReport) String() string {
	var b strings.Builder
	noSuper := !r.Super[0].Valid && !r.Super[1].Valid
	if noSuper {
		fmt.Fprintf(&b, "format v%d  no valid superblock\n", r.Version)
	} else {
		fmt.Fprintf(&b, "format v%d  page size %d B  %d page slots (%d free per superblock)\n",
			r.Version, r.PageSize, r.NPages-1, r.NFree)
	}
	for i, s := range r.Super {
		state := "INVALID"
		if s.Valid {
			state = fmt.Sprintf("valid seq=%d", s.Seq)
		}
		active := ""
		if s.Valid && i == r.ActiveSlot {
			active = "  <- active"
		}
		fmt.Fprintf(&b, "superblock slot %d: %s%s\n", i, state, active)
	}
	if noSuper {
		fmt.Fprintf(&b, "page checksums: not scanned (no superblock commits a page count)\n")
		return b.String()
	}
	if len(r.BadPages) == 0 {
		fmt.Fprintf(&b, "page checksums: all %d OK (%d data, %d free)\n",
			r.NPages-1, r.NPages-1-r.FreePages, r.FreePages)
	} else {
		fmt.Fprintf(&b, "page checksums: %d BAD: %v\n", len(r.BadPages), r.BadPages)
	}
	if r.FreeListNote != "" {
		fmt.Fprintf(&b, "free list: %s\n", r.FreeListNote)
	} else {
		fmt.Fprintf(&b, "free list: %d/%d reachable, consistent\n", r.FreeReachable, r.NFree)
	}
	return b.String()
}

// VerifyFile scans a store file for damage without opening it as a live
// store: it validates both superblock slots, verifies every committed
// page's checksum, and walks the free list. The file is opened read-only,
// so the scan never changes what a later recovery would see.
func VerifyFile(path string) (*VerifyReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eio: verify: %w", err)
	}
	defer f.Close()

	var hdr [superRegionSize]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("eio: verify: read header: %w", err)
	}

	if n >= 8 && binary.LittleEndian.Uint64(hdr[0:]) == fileMagicV1 {
		return nil, fmt.Errorf("eio: verify: %s: unsupported format v1 (no checksums; nothing has written it since the first build)", path)
	}
	if n < superRegionSize {
		return nil, fmt.Errorf("eio: verify: %s is not a page store (too short)", path)
	}

	r := &VerifyReport{Version: 2, ActiveSlot: -1}
	var best superState
	for slot := 0; slot < 2; slot++ {
		st, ok := parseSuperSlot(hdr[slot*superSlotSize : (slot+1)*superSlotSize])
		r.Super[slot] = SuperSlotStatus{Valid: ok, Seq: st.seq}
		if ok && (r.ActiveSlot < 0 || st.seq > best.seq) {
			r.ActiveSlot, best = slot, st
		}
	}
	if r.ActiveSlot < 0 {
		return r, nil // Damaged() — nothing more we can trust
	}
	r.PageSize, r.NPages, r.NFree = best.pageSize, best.npages, best.nfree

	// Scan every committed page slot, verifying trailers.
	slotSize := best.pageSize + pageTrailerSize
	slot := make([]byte, slotSize)
	flags := make(map[PageID]uint32, best.npages)
	for id := PageID(1); uint64(id) < best.npages; id++ {
		off := superRegionSize + int64(id-1)*int64(slotSize)
		if _, err := f.ReadAt(slot, off); err != nil {
			r.BadPages = append(r.BadPages, id)
			continue
		}
		if binary.LittleEndian.Uint32(slot[best.pageSize:]) != pageCRC(id, slot[:best.pageSize]) {
			r.BadPages = append(r.BadPages, id)
			continue
		}
		fl := binary.LittleEndian.Uint32(slot[best.pageSize+4:])
		flags[id] = fl
		if fl == pageFlagFree {
			r.FreePages++
		}
	}

	// Walk the free list from the committed head. After a crash the head
	// may be a page whose (uncommitted) reallocation zeroed it: the walk
	// then ends early and the tail is leaked, which we report as drift.
	seen := make(map[PageID]bool)
	id := best.freeHead
	for id != NilPage {
		if uint64(id) >= best.npages {
			r.FreeListNote = fmt.Sprintf("walk hit out-of-range page %d after %d hops", id, r.FreeReachable)
			break
		}
		if seen[id] {
			r.FreeListNote = fmt.Sprintf("walk revisited page %d: cycle", id)
			break
		}
		seen[id] = true
		fl, ok := flags[id]
		if !ok {
			r.FreeListNote = fmt.Sprintf("walk hit checksum-bad page %d after %d hops", id, r.FreeReachable)
			break
		}
		r.FreeReachable++
		if fl != pageFlagFree {
			// A crash-orphaned reallocation: safe to reuse, but its next
			// pointer is not a free-list link, so the walk stops here.
			r.FreeListNote = fmt.Sprintf("page %d lacks the free flag (crash-orphaned allocation); %d of %d free pages reachable", id, r.FreeReachable, r.NFree)
			break
		}
		var nb [8]byte
		if _, err := f.ReadAt(nb[:], superRegionSize+int64(id-1)*int64(slotSize)); err != nil {
			r.FreeListNote = fmt.Sprintf("read of free page %d failed: %v", id, err)
			break
		}
		id = PageID(binary.LittleEndian.Uint64(nb[:]))
	}
	if r.FreeListNote == "" && r.FreeReachable != r.NFree {
		r.FreeListNote = fmt.Sprintf("%d reachable but superblock claims %d (leak after crash?)", r.FreeReachable, r.NFree)
	}
	return r, nil
}
