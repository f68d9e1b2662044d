package eiotest

import "sync"

// PoolsRecycle reports whether sync.Pool hands back what it was given on
// this build. Under the race detector Put deliberately drops a quarter of
// its items at random, so working memory that is normally recycled through
// a pool is sometimes rebuilt there; the zero-allocation guards on pooled
// paths ask this first and skip when the answer is no.
func PoolsRecycle() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 64; i++ {
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}
