package eio

import "hash/crc32"

// castagnoli is the CRC-32C polynomial table used for all on-disk
// checksums (the same polynomial iSCSI, ext4 and Btrfs use; hardware
// accelerated on amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c returns the CRC-32C of b.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// pageCRC computes the checksum stored in a page's trailer. The page id is
// mixed in ahead of the contents so that a page written to the wrong
// offset (a misdirected write) also fails verification, not just a page
// whose bytes were damaged in place.
//
// The id's eight little-endian bytes are folded in with the table directly:
// handing crc32.Update a stack array makes it escape (the package
// dispatches through a function value), which would cost one heap
// allocation per page read or written.
func pageCRC(id PageID, data []byte) uint32 {
	c := ^uint32(0)
	for shift := 0; shift < 64; shift += 8 {
		c = castagnoli[byte(c)^byte(id>>shift)] ^ (c >> 8)
	}
	return crc32.Update(^c, castagnoli, data)
}
