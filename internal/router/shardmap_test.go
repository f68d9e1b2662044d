package router

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rangesearch/internal/geom"
)

func mustBounds(t *testing.T, spec string) *Map {
	t.Helper()
	m, err := ParseBounds(spec)
	if err != nil {
		t.Fatalf("ParseBounds(%q): %v", spec, err)
	}
	return m
}

func TestParseShardsErrors(t *testing.T) {
	bad := []string{
		"",
		"rest",                            // wantAddrs but no addr
		"x<100@a:1",                       // no rest
		"rest@a:1,x<5@b:1",                // shard after rest
		"x<100@a:1,x<100@b:1,rest@c:1",    // duplicate bound
		"x<200@a:1,x<100@b:1,rest@c:1",    // decreasing bound
		"x<abc@a:1,rest@b:1",              // unparsable bound
		"y<100@a:1,rest@b:1",              // wrong axis
		"x<100@,rest@b:1",                 // empty addr
		"x<100@a b:1,rest@b:1",            // space in addr
		"x<100@a,b:1,rest@c:1",            // comma splits into bad shard
		"x<-9223372036854775808@a,rest@b", // bound == MinCoord
	}
	for _, spec := range bad {
		if m, err := ParseShards(spec); err == nil {
			t.Errorf("ParseShards(%q) accepted: %+v", spec, m)
		}
	}
	if _, err := ParseBounds("x<100@a:1,rest@b:1"); err == nil {
		t.Error("ParseBounds accepted a spec with addresses")
	}
	if _, err := ParseShards("x<100@a:1,rest@b:1"); err != nil {
		t.Errorf("ParseShards rejected a valid spec: %v", err)
	}
}

// TestShardMapProperties drives random partitions against random query
// intervals and pins the two routing laws the scatter-gather relies on:
// the union of the overlapped shards' clipped intervals is exactly the
// query interval (no gaps, no spill), and no shard outside the Overlap
// range intersects the query at all — the "non-overlapping shards are
// never contacted" guarantee, checked here in its pure form (the network
// form is TestScatterContactsOnlyOverlappingShards).
func TestShardMapProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		// Random strictly-increasing bounds over a mixed-magnitude domain.
		domain := int64(1) << (3 + rng.Intn(40))
		nb := rng.Intn(6)
		set := map[int64]struct{}{}
		for len(set) < nb {
			b := rng.Int63n(domain*2+1) - domain
			if b != geom.MinCoord {
				set[b] = struct{}{}
			}
		}
		bounds := make([]int64, 0, nb)
		for b := range set {
			bounds = append(bounds, b)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		var parts []string
		for _, b := range bounds {
			parts = append(parts, "x<"+strconv.FormatInt(b, 10))
		}
		parts = append(parts, "rest")
		m := mustBounds(t, strings.Join(parts, ","))

		// Spec round-trips: Parse ∘ Spec is the identity.
		if re := mustBounds(t, m.Spec()); re.Spec() != m.Spec() {
			t.Fatalf("spec not canonical: %q -> %q", m.Spec(), re.Spec())
		}

		// ShardFor owns every probe point.
		for p := 0; p < 20; p++ {
			x := rng.Int63n(domain*2+1) - domain
			sh := m.Shards[m.ShardFor(x)]
			if x < sh.Lo || x > sh.Hi {
				t.Fatalf("%s: ShardFor(%d) -> [%d,%d]", m.Spec(), x, sh.Lo, sh.Hi)
			}
		}

		for q := 0; q < 20; q++ {
			xlo := rng.Int63n(domain*2+1) - domain
			xhi := xlo + rng.Int63n(domain)
			lo, hi := m.Overlap(xlo, xhi)
			if lo >= hi {
				t.Fatalf("%s: Overlap(%d,%d) empty for a non-empty interval", m.Spec(), xlo, xhi)
			}
			// Union of the clipped per-shard intervals covers [xlo, xhi]
			// contiguously.
			next := xlo
			for i := lo; i < hi; i++ {
				sh := m.Shards[i]
				clo, chi := max64(sh.Lo, xlo), min64(sh.Hi, xhi)
				if clo > chi {
					t.Fatalf("%s: shard %d in Overlap(%d,%d) but disjoint [%d,%d]", m.Spec(), i, xlo, xhi, sh.Lo, sh.Hi)
				}
				if clo != next {
					t.Fatalf("%s: Overlap(%d,%d) gap: shard %d starts at %d, want %d", m.Spec(), xlo, xhi, i, clo, next)
				}
				if chi == xhi {
					next = xhi
				} else {
					next = chi + 1
				}
			}
			if next != xhi {
				t.Fatalf("%s: Overlap(%d,%d) union ends at %d", m.Spec(), xlo, xhi, next)
			}
			// Everything outside the Overlap range is disjoint from the query.
			for i, sh := range m.Shards {
				if i >= lo && i < hi {
					continue
				}
				if sh.Lo <= xhi && sh.Hi >= xlo {
					t.Fatalf("%s: shard %d [%d,%d] intersects (%d,%d) but Overlap=[%d,%d)",
						m.Spec(), i, sh.Lo, sh.Hi, xlo, xhi, lo, hi)
				}
			}
		}

		// Empty query intervals contact nothing.
		if lo, hi := m.Overlap(5, 4); lo != hi {
			t.Fatalf("%s: Overlap(5,4) = [%d,%d), want empty", m.Spec(), lo, hi)
		}
	}
}

// TestTopologyRoundTrip pins Encode ∘ Decode as the identity on maps and
// Decode ∘ Encode as the identity on accepted payloads.
func TestTopologyRoundTrip(t *testing.T) {
	specs := []string{
		"rest@h:1",
		"x<100@a:9035,rest@b:9035",
		fmt.Sprintf("x<%d@a:1|b:2|c:3,x<0@d:4,rest@e:5", geom.MinCoord+1),
		fmt.Sprintf("x<%d@a:1,rest@b:2", geom.MaxCoord),
	}
	for _, spec := range specs {
		m, err := ParseShards(spec)
		if err != nil {
			t.Fatalf("ParseShards(%q): %v", spec, err)
		}
		enc := EncodeTopology(nil, m)
		dec, err := DecodeTopology(enc)
		if err != nil {
			t.Fatalf("%q: decode: %v", spec, err)
		}
		if dec.Spec() != m.Spec() {
			t.Fatalf("%q: round trip %q", m.Spec(), dec.Spec())
		}
		re := EncodeTopology(nil, dec)
		if string(re) != string(enc) {
			t.Fatalf("%q: re-encode differs", spec)
		}
	}
	if _, err := DecodeTopology(nil); err == nil {
		t.Fatal("DecodeTopology(nil) accepted")
	}
	if _, err := DecodeTopology([]byte{topologyVersion, 0, 0}); err == nil {
		t.Fatal("empty shard map accepted")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
