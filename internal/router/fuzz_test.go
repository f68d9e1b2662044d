package router

import (
	"bytes"
	"errors"
	"testing"

	"rangesearch/internal/geom"
)

// FuzzDecodeTopology pins the TOPOLOGY decoder's totality and strictness:
// arbitrary bytes either decode to a valid map or fail with ErrTopology —
// never panic — and every accepted payload re-encodes byte-identically
// (the encoding is canonical, one byte string per map).
func FuzzDecodeTopology(f *testing.F) {
	seed := func(spec string) []byte {
		m, err := ParseShards(spec)
		if err != nil {
			f.Fatal(err)
		}
		return EncodeTopology(nil, m)
	}
	f.Add(seed("rest@h:9035"))
	f.Add(seed("x<100@a:9035,rest@b:9035"))
	f.Add(seed("x<-5@a:1|b:2,x<100@c:3,rest@d:4"))
	f.Add([]byte{})
	f.Add([]byte{topologyVersion, 0, 0})
	f.Add([]byte{topologyVersion, 0xff, 0xff})
	f.Add([]byte{0, 0, 1})                                 // wrong version
	f.Add([]byte{topologyVersion, 0, 1, 0, 0, 0, 0, 0, 0}) // truncated shard

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeTopology(body)
		if err != nil {
			if !errors.Is(err, ErrTopology) {
				t.Fatalf("non-ErrTopology failure: %v", err)
			}
			return
		}
		re := EncodeTopology(nil, m)
		if !bytes.Equal(re, body) {
			t.Fatalf("round trip not canonical:\n in %x\nout %x", body, re)
		}
		// A decoded map is a valid partition: total, gap-free, addressed.
		if m.Shards[0].Lo != geom.MinCoord || m.Shards[len(m.Shards)-1].Hi != geom.MaxCoord {
			t.Fatalf("decoded map not total: %q", m.Spec())
		}
		// And its textual form parses back to the same map.
		if _, err := ParseShards(m.Spec()); err != nil {
			t.Fatalf("decoded map's spec %q does not parse: %v", m.Spec(), err)
		}
	})
}

// FuzzParseShards pins the -shards parser: total over arbitrary strings
// (reject or accept, never panic), and canonical on acceptance — the
// rendered Spec re-parses to a map that renders identically, and survives
// the topology codec unchanged. (The input itself need not equal its Spec:
// "x<0100" normalizes to "x<100".)
func FuzzParseShards(f *testing.F) {
	f.Add("rest@h:9035")
	f.Add("x<100@a:9035,rest@b:9035")
	f.Add("x<-5@a:1|b:2,x<100@c:3,rest@d:4")
	f.Add("x<0100@a:1,rest@b:2")
	f.Add("x<9223372036854775807@a:1,rest@b:2")
	f.Add("x<-9223372036854775808@a:1,rest@b:2")
	f.Add("rest")
	f.Add("x<1@,rest@b")
	f.Add("x<1@a,x<1@b,rest@c")
	f.Add(",,,")
	f.Add("x<1@a|b|c|d|e|f|g|h|i|j|k|l|m|n|o|p|q,rest@r")

	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseShards(spec)
		if err != nil {
			return
		}
		s := m.Spec()
		m2, err := ParseShards(s)
		if err != nil {
			t.Fatalf("Spec %q of accepted %q does not re-parse: %v", s, spec, err)
		}
		if m2.Spec() != s {
			t.Fatalf("Spec not canonical: %q -> %q", s, m2.Spec())
		}
		enc := EncodeTopology(nil, m)
		dec, err := DecodeTopology(enc)
		if err != nil {
			t.Fatalf("accepted map %q does not survive the topology codec: %v", s, err)
		}
		if dec.Spec() != s {
			t.Fatalf("topology round trip: %q -> %q", s, dec.Spec())
		}
	})
}
