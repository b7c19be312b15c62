//go:build !race

package storage

import (
	"fmt"
	"testing"

	"rocksteady/internal/wire"
)

// TestReplayZeroAllocs pins a batch replay that rolls no segment at zero
// allocations, into the main log and into a side log: the per-record
// scratch is pooled and the batch reuses the head segment. Gated off race
// builds, whose sync.Pool drops items at random.
func TestReplayZeroAllocs(t *testing.T) {
	l := NewShardedLog(16<<20, 1, nil)
	ht := NewHashTable(1024)
	sl := l.NewSideLog(3)
	recs := make([]wire.Record, 64)
	for i := range recs {
		recs[i] = wire.Record{Table: 1, Key: []byte(fmt.Sprintf("alloc-%03d", i)), Value: make([]byte, 100)}
	}
	version := uint64(0)
	replay := func(name string, fn func() (ReplayResult, error)) {
		allocs := testing.AllocsPerRun(100, func() {
			version++
			for i := range recs {
				recs[i].Version = version
			}
			if res, err := fn(); err != nil || res.Stored != int64(len(recs)) {
				t.Fatalf("%s: %+v, %v", name, res, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s replay allocates %.1f/batch, want 0", name, allocs)
		}
	}
	replay("main-log", func() (ReplayResult, error) { return l.Replay(0, ht, recs, ReplayOptions{LogDead: true}) })
	replay("side-log", func() (ReplayResult, error) { return sl.Replay(ht, recs, ReplayOptions{}) })
}
