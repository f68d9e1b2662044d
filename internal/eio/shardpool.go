package eio

// The benchmark mirror still spells -pool's cache by the names of the
// striped pool this package used to have, and a change that claims a
// speed-up may not edit the benchmark. These names build the one exact LRU
// rsserve serves; the next change to the benchmark renames its two uses
// and deletes this file.
type ShardedPool = Pool

const DefaultPoolShards = 16

func NewShardedPool(backing Store, capacity, _ int) *Pool { return NewPool(backing, capacity) }
