package core_test

import (
	"fmt"
	"log"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/range4"
)

// ExampleThreeSided builds the paper's optimal 3-sided index and answers
// an open-topped query.
func ExampleThreeSided() {
	store := eio.NewMemStore(1024) // B = 64 points per block
	idx, err := core.BuildThreeSided(store, epst.Options{}, []geom.Point{
		{X: 1, Y: 10}, {X: 2, Y: 90}, {X: 3, Y: 50}, {X: 8, Y: 70},
	})
	if err != nil {
		log.Fatal(err)
	}
	// All points with 1 ≤ x ≤ 5 and y ≥ 40.
	res, err := idx.Query3(nil, geom.Query3{XLo: 1, XHi: 5, YLo: 40})
	if err != nil {
		log.Fatal(err)
	}
	geom.SortByX(res)
	fmt.Println(res)
	// Output: [(2,90) (3,50)]
}

// ExampleFourSided answers a general window query.
func ExampleFourSided() {
	store := eio.NewMemStore(1024)
	idx, err := core.BuildFourSided(store, range4.Options{}, []geom.Point{
		{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 9, Y: 9},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := idx.Query(nil, geom.Rect{XLo: 2, XHi: 10, YLo: 2, YHi: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	// Output: [(5,5)]
}

// ExampleConcurrent shares one index between goroutines: writers from any
// goroutine are group-committed, readers see committed snapshots.
func ExampleConcurrent() {
	snap := eio.NewSnapStore(eio.NewMemStore(1024), 0)
	inner, err := core.NewThreeSided(snap, epst.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := snap.Commit(); err != nil {
		log.Fatal(err)
	}
	hdr := inner.HeaderID()
	idx, err := core.NewConcurrent(inner, snap,
		func(s eio.Store) (core.Index, error) { return core.OpenThreeSided(s, hdr) },
		core.ConcurrentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 100; i++ {
			if err := idx.Insert(geom.Point{X: i, Y: i * i}); err != nil {
				log.Fatal(err)
			}
		}
	}()
	<-done
	n, err := idx.Len()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n)
	// Output: 100
}
