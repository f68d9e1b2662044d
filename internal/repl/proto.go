// Package repl is WAL log-shipping replication for the serving stack: a
// primary-side Shipper that streams committed redo records (plus a full
// page snapshot for bootstrap) to any number of replicas, a replica-side
// Replica loop that replays them through eio.TxReplica into a read-only
// serving stack, and a Node that fronts either role behind the
// core.Engine surface so one rsserve process can be primary, replica,
// or a replica promoted to primary mid-flight.
//
// # Sub-protocol
//
// Replication runs on its own TCP port, framed exactly like the serving
// protocol (u32 big-endian length + body) but with its own message set,
// because frames carry whole page images and redo records rather than
// requests. The first body byte is the message type:
//
//	HELLO     0x01  replica → primary   ver, term, lsn, pageSize, dir
//	RESUME    0x02  primary → replica   term, lsn — tail-ship from lsn
//	SNAPBEGIN 0x03  primary → replica   term, lsn, pageSize, dir, hdr, npages
//	SNAPPAGE  0x04  primary → replica   id + raw page image
//	SNAPEND   0x05  primary → replica   lsn (must equal SNAPBEGIN's)
//	RECORD    0x06  primary → replica   term + one encoded WAL record
//	HEARTBEAT 0x07  primary → replica   term, lsn (primary durable position)
//	ACK       0x08  replica → primary   lsn (replica durable position)
//	FENCE     0x09  either direction    term — sender's term; a receiver
//	                                    with a lower term must stand down
//	PROMOTE   0x0A  admin → node        (empty) promote this node
//	PROMOTED  0x0B  node → admin        term, lsn of the new primary
//	ERROR     0x0C  either direction    utf-8 diagnostic
//
// A replica opens with HELLO carrying its durable position (term 0, lsn 0,
// dir 0 when it has no store yet). The primary answers RESUME when it can
// replay everything after that lsn from its backlog, SNAPBEGIN…SNAPEND
// when the replica needs a full re-clone (fresh, lagging beyond the
// backlog, diverged ahead of the primary, or from a different term
// lineage), or FENCE when the replica's term proves the primary stale.
// After RESUME or SNAPEND the connection becomes a one-way record stream
// punctuated by heartbeats, with ACKs flowing back on the same socket.
//
// # Fencing
//
// Terms order primary lineages. The Node owns a node's role and term and
// persists every change before it acknowledges anything under it.
// Promotion bumps the term; every message the shipper sends carries it; a
// primary that sees a higher term than its own anywhere (HELLO, FENCE)
// fences itself — writes fail core.ErrNotPrimary — because a newer
// lineage exists and accepting more writes would fork history. A record
// carries the term its write was admitted under.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Message types.
const (
	msgHello     byte = 0x01
	msgResume    byte = 0x02
	msgSnapBegin byte = 0x03
	msgSnapPage  byte = 0x04
	msgSnapEnd   byte = 0x05
	msgRecord    byte = 0x06
	msgHeartbeat byte = 0x07
	msgAck       byte = 0x08
	msgFence     byte = 0x09
	msgPromote   byte = 0x0A
	msgPromoted  byte = 0x0B
	msgError     byte = 0x0C
)

// protoVersion is the HELLO version byte; a primary rejects versions it
// does not speak.
const protoVersion = 1

// MaxFrame bounds one replication frame: it must fit a whole redo record
// (WAL capacity × page size) or one snapshot page. 16 MiB covers a
// 4 KiB-page store with a 4096-page WAL with room to spare.
const MaxFrame = 16 << 20

// ErrFenced reports that the peer proved this node's term stale.
var ErrFenced = errors.New("repl: fenced by higher term")

// ErrProto reports a malformed replication frame.
var ErrProto = errors.New("repl: protocol error")

// Hello is the replica's opening position statement.
type Hello struct {
	Term     uint64
	LSN      uint64
	PageSize int
	Dir      uint64
}

// SnapInfo is the header of a full-snapshot transfer: everything a
// replica needs to create a protocol-identical store file.
type SnapInfo struct {
	Term     uint64
	LSN      uint64
	PageSize int
	Dir      uint64
	Hdr      uint64
	NPages   uint64
}

func be64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func be32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func beU64(b []byte) uint64          { return binary.BigEndian.Uint64(b) }

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame, rejecting oversized ones
// (a desynced or hostile peer must not make us allocate gigabytes).
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds limit %d", ErrProto, n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func encodeHello(h Hello) []byte {
	b := make([]byte, 0, 2+8+8+4+8)
	b = append(b, msgHello, protoVersion)
	b = be64(b, h.Term)
	b = be64(b, h.LSN)
	b = be32(b, uint32(h.PageSize))
	b = be64(b, h.Dir)
	return b
}

func decodeHello(body []byte) (Hello, error) {
	if len(body) != 2+8+8+4+8 || body[0] != msgHello {
		return Hello{}, fmt.Errorf("%w: bad HELLO", ErrProto)
	}
	if body[1] != protoVersion {
		return Hello{}, fmt.Errorf("%w: HELLO version %d, want %d", ErrProto, body[1], protoVersion)
	}
	return Hello{
		Term:     binary.BigEndian.Uint64(body[2:]),
		LSN:      binary.BigEndian.Uint64(body[10:]),
		PageSize: int(binary.BigEndian.Uint32(body[18:])),
		Dir:      binary.BigEndian.Uint64(body[22:]),
	}, nil
}

func encodeSnapBegin(s SnapInfo) []byte {
	b := make([]byte, 0, 1+8+8+4+8+8+8)
	b = append(b, msgSnapBegin)
	b = be64(b, s.Term)
	b = be64(b, s.LSN)
	b = be32(b, uint32(s.PageSize))
	b = be64(b, s.Dir)
	b = be64(b, s.Hdr)
	b = be64(b, s.NPages)
	return b
}

func decodeSnapBegin(body []byte) (SnapInfo, error) {
	if len(body) != 1+8+8+4+8+8+8 {
		return SnapInfo{}, fmt.Errorf("%w: bad SNAPBEGIN", ErrProto)
	}
	return SnapInfo{
		Term:     binary.BigEndian.Uint64(body[1:]),
		LSN:      binary.BigEndian.Uint64(body[9:]),
		PageSize: int(binary.BigEndian.Uint32(body[17:])),
		Dir:      binary.BigEndian.Uint64(body[21:]),
		Hdr:      binary.BigEndian.Uint64(body[29:]),
		NPages:   binary.BigEndian.Uint64(body[37:]),
	}, nil
}

// encodeU64Msg covers the one-u64 messages (ACK, FENCE) and, with two
// values, RESUME / HEARTBEAT / PROMOTED (term, lsn).
func encodeU64Msg(t byte, vs ...uint64) []byte {
	b := make([]byte, 0, 1+8*len(vs))
	b = append(b, t)
	for _, v := range vs {
		b = be64(b, v)
	}
	return b
}

func decodeU64s(body []byte, n int) ([]uint64, error) {
	if len(body) != 1+8*n {
		return nil, fmt.Errorf("%w: message 0x%02x: %d bytes, want %d", ErrProto, body[0], len(body), 1+8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(body[1+8*i:])
	}
	return out, nil
}

func encodeError(msg string) []byte {
	return append([]byte{msgError}, msg...)
}
