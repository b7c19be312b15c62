package main

import (
	"encoding/binary"
	"sync/atomic"

	"rocksteady/internal/ycsb"
)

// Record shape of the paper's evaluation (§4.1): 30 B keys, 100 B values.
const (
	keySize   = 30
	valueSize = 100
	userBytes = keySize + valueSize
)

// dataset is the input of one round and the oracle its outputs are checked
// against. Every value carries (item, sequence); each item is written by
// exactly one connection (item mod connections), so an item's sequence is
// that connection's write order for it and a read can be checked against
// the last acknowledged write without guessing how concurrent writers
// interleaved.
type dataset struct {
	n    int
	salt uint64 // derived from the seed, so two rounds never share values

	// acked[i] is the sequence of the last write of item i that returned
	// success (0 = the loaded value); issued[i] the last one sent. A read
	// that starts after acked = a and ends before issued = b must return a
	// sequence in [a, b].
	acked  []atomic.Uint32
	issued []atomic.Uint32
}

func newDataset(n int, salt uint64) *dataset {
	return &dataset{n: n, salt: salt, acked: make([]atomic.Uint32, n), issued: make([]atomic.Uint32, n)}
}

func (d *dataset) key(item uint64) []byte { return ycsb.KeyOf(item, keySize) }

// value materialises write number seq of an item: item and sequence in a
// 12-byte header, then filler that depends on both, so any corrupted byte
// fails the comparison in check.
func (d *dataset) value(item uint64, seq uint32) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint64(v, item)
	binary.LittleEndian.PutUint32(v[8:], seq)
	x := item + uint64(seq) + d.salt
	for i := 12; i < valueSize; i++ {
		v[i] = byte('a' + (x+uint64(i))%26)
	}
	return v
}

// Verification outcomes, tallied by kind.
const (
	verdictOK        = ""
	verdictMissing   = "missing"    // key absent
	verdictWrongItem = "wrong_item" // another item's value
	verdictStale     = "stale"      // older than the last acknowledged write
	verdictFuture    = "future"     // newer than anything sent
	verdictCorrupt   = "corrupt"    // right header, wrong bytes
)

// check compares a value read for item against the oracle; lo and hi are
// acked[item] loaded before the read was sent and issued[item] loaded
// after it returned.
func (d *dataset) check(item uint64, lo, hi uint32, got []byte) string {
	if len(got) != valueSize {
		if got == nil {
			return verdictMissing
		}
		return verdictCorrupt
	}
	if binary.LittleEndian.Uint64(got) != item {
		return verdictWrongItem
	}
	seq := binary.LittleEndian.Uint32(got[8:])
	if seq < lo {
		return verdictStale
	}
	if seq > hi {
		return verdictFuture
	}
	if string(got) != string(d.value(item, seq)) {
		return verdictCorrupt
	}
	return verdictOK
}
