package eio

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refLRU is the textbook write-back LRU that Pool implements with an
// intrusive list over its frame array: a recency-ordered slice, an eviction
// that writes a dirty victim back before the incoming page takes its place,
// and a miss that reads the page before evicting.
// It predicts, for a trace, the PoolStats after every operation and the
// exact sequence of reads and writes the backing store sees.
type refLRU struct {
	cap   int
	order []PageID // front = most recently used
	dirty map[PageID]bool
	stats PoolStats
	log   []string // backing-store page transfers, in order
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, dirty: map[PageID]bool{}}
}

func (r *refLRU) find(id PageID) int {
	for i, x := range r.order {
		if x == id {
			return i
		}
	}
	return -1
}

func (r *refLRU) touch(i int) {
	id := r.order[i]
	copy(r.order[1:i+1], r.order[:i])
	r.order[0] = id
}

func (r *refLRU) insert(id PageID, dirty bool) {
	for len(r.order) >= r.cap {
		victim := r.order[len(r.order)-1]
		if r.dirty[victim] {
			r.stats.Writeback++
			r.log = append(r.log, fmt.Sprintf("W%d", victim))
		}
		r.stats.Evictions++
		r.order = r.order[:len(r.order)-1]
		delete(r.dirty, victim)
	}
	r.order = append([]PageID{id}, r.order...)
	r.dirty[id] = dirty
}

func (r *refLRU) read(id PageID) {
	if i := r.find(id); i >= 0 {
		r.stats.Hits++
		r.touch(i)
		return
	}
	r.stats.Misses++
	r.log = append(r.log, fmt.Sprintf("R%d", id))
	r.insert(id, false)
}

func (r *refLRU) write(id PageID) {
	if i := r.find(id); i >= 0 {
		r.stats.Hits++
		r.dirty[id] = true
		r.touch(i)
		return
	}
	r.stats.Misses++
	r.insert(id, true)
}

func (r *refLRU) free(id PageID) {
	if i := r.find(id); i >= 0 {
		r.order = append(r.order[:i], r.order[i+1:]...)
		delete(r.dirty, id)
	}
}

// flush writes back the dirty pages in ascending page id, NOT in recency
// order: Flush is pinned to be a sequential sweep of the dirty set, the same
// whatever the access history was. It returns the transfers.
func (r *refLRU) flush() []string {
	var ids []PageID
	for id, d := range r.dirty {
		if d {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var log []string
	for _, id := range ids {
		r.stats.Writeback++
		r.dirty[id] = false
		log = append(log, fmt.Sprintf("W%d", id))
	}
	return log
}

// transferLog is a pass-through Store recording the page transfers it sees.
type transferLog struct {
	Store
	log []string
}

func (l *transferLog) Read(id PageID, buf []byte) error {
	l.log = append(l.log, fmt.Sprintf("R%d", id))
	return l.Store.Read(id, buf)
}

func (l *transferLog) Write(id PageID, buf []byte) error {
	l.log = append(l.log, fmt.Sprintf("W%d", id))
	return l.Store.Write(id, buf)
}

// TestPoolTraceMatchesReferenceLRU drives Pool with a scripted (seeded)
// trace of allocs, frees, reads, writes and flushes and checks, after every
// single operation, that PoolStats, residency and the order of
// backing-store transfers are exactly what the reference LRU predicts.
// Page contents are checked against a shadow copy. Cap 32 is what rsserve
// -pool runs in the repo benchmark. The subtest names keep the shards=0 of
// the days a striped pool ran here too, so their ids stay put.
func TestPoolTraceMatchesReferenceLRU(t *testing.T) {
	const ps = 32
	for _, capacity := range []int{1, 3, 8, 32} {
		t.Run(fmt.Sprintf("cap=%d/shards=0", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 * capacity)))
			backing := &transferLog{Store: NewMemStore(ps)}
			pool := NewPool(backing, capacity)
			defer pool.Close()
			ref := newRefLRU(capacity)

			shadow := map[PageID][]byte{}
			var ids []PageID
			var wantLog []string
			buf := make([]byte, ps)
			for op := 0; op < 4000; op++ {
				var desc string
				switch k := rng.Intn(100); {
				case len(ids) == 0 || k < 8:
					id, err := pool.Alloc()
					if err != nil {
						t.Fatal(err)
					}
					desc = fmt.Sprintf("alloc → %d", id)
					ids = append(ids, id)
					shadow[id] = make([]byte, ps)
					ref.insert(id, true)
				case k < 12:
					i := rng.Intn(len(ids))
					id := ids[i]
					desc = fmt.Sprintf("free %d", id)
					if err := pool.Free(id); err != nil {
						t.Fatal(err)
					}
					ids = append(ids[:i], ids[i+1:]...)
					delete(shadow, id)
					ref.free(id)
				case k < 14:
					desc = "flush"
					if err := pool.Flush(); err != nil {
						t.Fatal(err)
					}
					wantLog = append(wantLog, ref.flush()...)
				case k < 55:
					id := ids[rng.Intn(len(ids))]
					desc = fmt.Sprintf("write %d", id)
					data := make([]byte, ps)
					rng.Read(data)
					if err := pool.Write(id, data); err != nil {
						t.Fatal(err)
					}
					shadow[id] = data
					ref.write(id)
				default:
					id := ids[rng.Intn(len(ids))]
					desc = fmt.Sprintf("read %d", id)
					if err := pool.Read(id, buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, shadow[id]) {
						t.Fatalf("op %d (%s): contents diverged", op, desc)
					}
					ref.read(id)
				}

				want := ref.stats
				resident, dirty := len(ref.order), 0
				for _, d := range ref.dirty {
					if d {
						dirty++
					}
				}
				wantLog = append(wantLog, ref.log...)
				ref.log = ref.log[:0]
				if got := pool.PoolStats(); got != want {
					t.Fatalf("op %d (%s): PoolStats %+v, reference LRU says %+v", op, desc, got, want)
				}
				if pool.Resident() != resident || pool.Dirty() != dirty {
					t.Fatalf("op %d (%s): resident/dirty %d/%d, reference LRU says %d/%d",
						op, desc, pool.Resident(), pool.Dirty(), resident, dirty)
				}
				if fmt.Sprint(backing.log) != fmt.Sprint(wantLog) {
					t.Fatalf("op %d (%s): backing transfers %v, reference LRU says %v", op, desc, backing.log, wantLog)
				}
				backing.log, wantLog = backing.log[:0], wantLog[:0]
			}
		})
	}
}
