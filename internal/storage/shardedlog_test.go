package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rocksteady/internal/wire"
)

// TestShardedLogEpochsUniqueAndOrdered: every append across every shard
// gets a unique epoch, and within one segment epochs increase in append
// order (a segment is filled by exactly one shard head) — the property
// PullTail's whole-segment skip relies on.
func TestShardedLogEpochsUniqueAndOrdered(t *testing.T) {
	const shards, perShard = 4, 200
	l := NewShardedLog(1024, shards, nil)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				key := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if _, err := l.Append(w, EntryObject, 1, l.NextVersion(), 0, key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	for _, seg := range l.Segments() {
		last := uint64(0)
		err := IterateSegmentEntries(seg, func(ref Ref) bool {
			h, err := ref.Header()
			if err != nil {
				t.Fatal(err)
			}
			if h.Epoch == 0 {
				t.Fatalf("entry without epoch in segment %d", seg.ID)
			}
			if seen[h.Epoch] {
				t.Fatalf("duplicate epoch %d", h.Epoch)
			}
			seen[h.Epoch] = true
			if h.Epoch <= last {
				t.Fatalf("segment %d: epoch %d after %d", seg.ID, h.Epoch, last)
			}
			last = h.Epoch
			if seg.FirstEpoch() > h.Epoch || seg.LastEpoch() < h.Epoch {
				t.Fatalf("segment %d epoch range [%d,%d] excludes %d",
					seg.ID, seg.FirstEpoch(), seg.LastEpoch(), h.Epoch)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != shards*perShard {
		t.Fatalf("saw %d epochs, want %d", len(seen), shards*perShard)
	}
	if l.CurrentEpoch() != shards*perShard {
		t.Fatalf("CurrentEpoch = %d, want %d", l.CurrentEpoch(), shards*perShard)
	}
}

// TestTailWatermarkClosure pins the watermark invariant migration's tail
// catch-up depends on: any append that starts after TailWatermark returns
// carries an epoch strictly above the watermark — on every shard, while
// other shards keep appending concurrently.
func TestTailWatermarkClosure(t *testing.T) {
	const shards = 4
	l := NewShardedLog(512, shards, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("bg-w%d-%06d", w, i))
				if _, err := l.Append(w, EntryObject, 1, l.NextVersion(), 0, key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 200; round++ {
		mark := l.TailWatermark()
		for w := 0; w < shards; w++ {
			ref, err := l.Append(w, EntryObject, 1, l.NextVersion(), 0, []byte(fmt.Sprintf("probe-%d-%d", round, w)), []byte("p"))
			if err != nil {
				t.Fatal(err)
			}
			h, err := ref.Header()
			if err != nil {
				t.Fatal(err)
			}
			if h.Epoch <= mark {
				t.Fatalf("round %d shard %d: post-watermark append epoch %d <= watermark %d",
					round, w, h.Epoch, mark)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCleanerVsShardedHeads races the cleaner against writers appending
// through every shard head: overwrites scatter dead entries across many
// interleaved segments, the cleaner relocates survivors (through shard 0)
// while the writers keep rolling new heads. Run under -race; afterwards
// every key must still resolve to its newest value through the hash table.
func TestCleanerVsShardedHeads(t *testing.T) {
	const shards, keysPerShard, rounds = 4, 32, 40
	l := NewShardedLog(1024, shards, nil)
	ht := NewHashTable(1024)
	cl := NewCleaner(l, ht)
	cl.WriteCostThreshold = 0.99 // clean aggressively

	var wg sync.WaitGroup
	var wrote [shards][keysPerShard]atomic.Uint64
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keysPerShard; k++ {
					key := []byte(fmt.Sprintf("w%d-key%02d", w, k))
					value := []byte(fmt.Sprintf("v%04d", r))
					hash := wire.HashKey(key)
					v := l.NextVersion()
					ref, err := l.Append(w, EntryObject, 1, v, 0, key, value)
					if err != nil {
						t.Error(err)
						return
					}
					if prev, existed := ht.Put(1, key, hash, ref); existed {
						l.MarkDead(prev)
					}
					wrote[w][k].Store(v)
				}
			}
		}(w)
	}

	cleanerDone := make(chan struct{})
	writersDone := make(chan struct{})
	go func() {
		defer close(cleanerDone)
		for {
			select {
			case <-writersDone:
				return
			default:
				cl.CleanOnce()
			}
		}
	}()
	wg.Wait()
	close(writersDone)
	<-cleanerDone

	// Sweep remaining garbage now that the writers stopped.
	for {
		if _, cleaned := cl.CleanOnce(); !cleaned {
			break
		}
	}

	for w := 0; w < shards; w++ {
		for k := 0; k < keysPerShard; k++ {
			key := []byte(fmt.Sprintf("w%d-key%02d", w, k))
			ref, ok := ht.Get(1, key, wire.HashKey(key))
			if !ok {
				t.Fatalf("key %q lost", key)
			}
			h, _, value, err := ref.Entry()
			if err != nil {
				t.Fatalf("key %q: %v", key, err)
			}
			if h.Version != wrote[w][k].Load() {
				t.Fatalf("key %q version %d, want %d", key, h.Version, wrote[w][k].Load())
			}
			if want := fmt.Sprintf("v%04d", rounds-1); string(value) != want {
				t.Fatalf("key %q = %q, want %q", key, value, want)
			}
		}
	}
}
