package sweep

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"rangesearch/internal/geom"
)

// FuzzSchemeQuery decodes an arbitrary byte string into a point set and a
// 3-sided query, builds the sweep scheme, and checks the answer against
// brute force and — on the distinct points of the input, where the scheme
// is unique — the whole scheme, built from the points in input order and
// from a shuffled copy, against buildReference. Run with
// `go test -fuzz=FuzzSchemeQuery ./internal/sweep`.
func FuzzSchemeQuery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(4), uint8(2))
	f.Add(make([]byte, 64), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, b8, alpha8 uint8) {
		b := 2 + int(b8)%14
		alpha := 2 + int(alpha8)%4
		// Decode up to 200 points of 2 bytes each (tiny coordinates make
		// duplicates and ties common — the interesting cases).
		var pts []geom.Point
		for i := 0; i+2 <= len(raw) && len(pts) < 200; i += 2 {
			pts = append(pts, geom.Point{X: int64(raw[i] % 32), Y: int64(raw[i+1] % 32)})
		}
		var qa, qb, qc int64
		if len(raw) >= 6 {
			qa = int64(binary.LittleEndian.Uint16(raw[0:]) % 40)
			qb = qa + int64(raw[2]%16)
			qc = int64(raw[4] % 40)
		}
		s, err := Build(pts, b, alpha)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		q := geom.Query3{XLo: qa, XHi: qb, YLo: qc}
		got, k := s.Query3(nil, q)
		want := map[geom.Point]int{}
		total := 0
		for _, p := range pts {
			if q.Contains(p) {
				want[p]++
				total++
			}
		}
		gotCnt := map[geom.Point]int{}
		for _, p := range got {
			gotCnt[p]++
		}
		if len(gotCnt) != len(want) {
			t.Fatalf("query %v: distinct %d vs %d", q, len(gotCnt), len(want))
		}
		for p, c := range want {
			if gotCnt[p] != c {
				t.Fatalf("query %v: point %v count %d vs %d", q, p, gotCnt[p], c)
			}
		}
		tb := (total + b - 1) / b
		if k > alpha*alpha*tb+alpha+1 {
			t.Fatalf("query %v: %d blocks exceeds Theorem 4 bound", q, k)
		}
		distinct := pts[:0:0]
		for p := range want {
			distinct = append(distinct, p)
		}
		for _, p := range pts {
			if want[p] == 0 {
				want[p] = 1
				distinct = append(distinct, p)
			}
		}
		merged, err := Build(distinct, b, alpha)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		sorted, err := buildReference(distinct, b, alpha)
		if err != nil {
			t.Fatalf("reference build: %v", err)
		}
		if err := sameScheme(merged, sorted); err != nil {
			t.Fatalf("b=%d alpha=%d, %d distinct points: %v", b, alpha, len(distinct), err)
		}
		var w Work
		w.SetPoints(distinct, b)
		rng := rand.New(rand.NewSource(int64(len(raw))<<16 | int64(b8)<<8 | int64(alpha8)))
		rng.Shuffle(len(w.Pts), func(i, j int) {
			w.Pts[i], w.Pts[j] = w.Pts[j], w.Pts[i]
			w.Block[i], w.Block[j] = w.Block[j], w.Block[i]
		})
		shuffled, err := w.Build(b, alpha)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		for i := range shuffled.blocks {
			shuffled.blocks[i].Points = shuffled.AppendPoints(nil, i)
		}
		if err := sameScheme(shuffled, sorted); err != nil {
			t.Fatalf("shuffled, b=%d alpha=%d, %d distinct points: %v", b, alpha, len(distinct), err)
		}
	})
}
