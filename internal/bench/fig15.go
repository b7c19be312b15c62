package bench

import (
	"fmt"
	"sync"
	"time"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// Fig15Point is one (side, object size, threads) scalability measurement.
type Fig15Point struct {
	Side       string // "source" | "target"
	ObjectSize int
	Threads    int
	GBPerSec   float64
}

// Fig15PullReplayScalability reproduces Figure 15: source-side pull logic
// and target-side replay logic run in isolation on large record batches,
// sweeping thread counts, for 128 B and 1024 B objects. Pull partitions
// map to disjoint hash-table regions and replay lands in per-thread side
// logs, so both sides scale with little contention; small objects stress
// per-record costs (hashing, checksums, hash-table probes), so the source
// outpaces target replay.
func Fig15PullReplayScalability(p Params, threadCounts []int, objectSizes []int) ([]Fig15Point, error) {
	p.applyDefaults()
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 12, 16}
	}
	if len(objectSizes) == 0 {
		objectSizes = []int{128, 1024}
	}
	var out []Fig15Point
	for _, size := range objectSizes {
		for _, threads := range threadCounts {
			src, err := fig15Source(p, size, threads)
			if err != nil {
				return nil, err
			}
			out = append(out, src)
			tgt, err := fig15Target(p, size, threads)
			if err != nil {
				return nil, err
			}
			out = append(out, tgt)
			p.logf("fig15 size=%-5d threads=%-2d source=%.2f GB/s target=%.2f GB/s",
				size, threads, src.GBPerSec, tgt.GBPerSec)
		}
	}
	return out, nil
}

// fig15Load builds a loaded source: log + hash table with Objects records
// of the given value size.
func fig15Load(p Params, valueSize int) (*storage.Log, *storage.HashTable, error) {
	log := storage.NewShardedLog(1<<22, 1, nil)
	ht := storage.NewHashTable(p.Objects * 2)
	value := make([]byte, valueSize)
	for i := 0; i < p.Objects; i++ {
		key := []byte(fmt.Sprintf("obj-%026d", i))
		ref, _, err := log.AppendObject(1, key, value)
		if err != nil {
			return nil, nil, err
		}
		ht.Put(1, key, wire.HashKey(key), ref)
	}
	return log, ht, nil
}

// fig15Source measures the source's pull engine: per-thread disjoint
// partitions scanned via the hash table, records gathered as the Pull
// handler does (§3.1.1), repeatedly until the measurement window closes.
func fig15Source(p Params, valueSize, threads int) (Fig15Point, error) {
	_, ht, err := fig15Load(p, valueSize)
	if err != nil {
		return Fig15Point{}, err
	}
	parts := wire.FullRange().Split(threads)
	window := time.Duration(p.Seconds) * time.Second / 16
	if window < 200*time.Millisecond {
		window = 200 * time.Millisecond
	}

	var wg sync.WaitGroup
	rates := make([]float64, threads)
	start := time.Now()
	deadline := start.Add(window)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			var local int64
			batch := make([]wire.Record, 0, 256)
			t0 := time.Now()
			for time.Now().Before(deadline) {
				token := uint64(0)
				for {
					used := 0
					batch = batch[:0]
					next, done := ht.ScanRange(1, parts[t], token, func(ref storage.Ref, h storage.EntryHeader) bool {
						rec, err := ref.RecordWith(h)
						if err != nil {
							return true
						}
						batch = append(batch, rec)
						used += wire.RecordSize(len(rec.Key), len(rec.Value))
						return used < 20<<10
					})
					local += int64(used)
					token = next
					if done || !time.Now().Before(deadline) {
						break
					}
				}
			}
			if el := time.Since(t0).Seconds(); el > 0 {
				rates[t] = float64(local) / 1e9 / el
			}
		}(t)
	}
	wg.Wait()
	var total float64
	for _, r := range rates {
		total += r
	}
	return Fig15Point{Side: "source", ObjectSize: valueSize, Threads: threads,
		GBPerSec: total}, nil
}

// fig15Target measures the target's replay engine: pre-gathered record
// batches incorporated into per-thread side logs and a shared hash table
// (§3.1.3), exactly as Pull responses replay.
func fig15Target(p Params, valueSize, threads int) (Fig15Point, error) {
	// Pre-generate the batches once (the network is not under test).
	value := make([]byte, valueSize)
	perThread := p.Objects / threads
	batches := make([][]wire.Record, threads)
	for t := 0; t < threads; t++ {
		recs := make([]wire.Record, perThread)
		for i := range recs {
			recs[i] = wire.Record{
				Table:   1,
				Version: uint64(i + 1),
				Key:     []byte(fmt.Sprintf("t%02d-obj-%022d", t, i)),
				Value:   value,
			}
		}
		batches[t] = recs
	}

	mainLog := storage.NewShardedLog(1<<22, 1, nil)
	ht := storage.NewHashTable(p.Objects * 2)
	window := time.Duration(p.Seconds) * time.Second / 16
	if window < 200*time.Millisecond {
		window = 200 * time.Millisecond
	}

	var wg sync.WaitGroup
	rates := make([]float64, threads)
	// Memory budget bounds the replayed bytes retained in side logs so
	// long sweeps don't exhaust RAM; rates use per-thread elapsed time.
	perThreadBudget := int64(512 << 20 / threads)
	start := time.Now()
	deadline := start.Add(window)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sl := mainLog.NewSideLog(uint64(100 + t))
			var local int64
			round := uint64(0)
			t0 := time.Now()
			for time.Now().Before(deadline) && local < perThreadBudget {
				round++
				for i := range batches[t] {
					rec := &batches[t][i]
					// Fresh versions each round so PutIfNewer always
					// stores (replay of new data, not duplicates).
					version := rec.Version + round*uint64(perThread+1)
					ref, err := sl.Append(rec.Table, version, rec.Key, rec.Value)
					if err != nil {
						return
					}
					hash := wire.HashKey(rec.Key)
					if prev, stored := ht.PutIfNewer(rec.Table, rec.Key, hash, ref, version); stored {
						storage.MarkDeadRef(prev)
					} else {
						storage.MarkDeadRef(ref)
					}
					local += int64(rec.WireSize())
				}
			}
			if el := time.Since(t0).Seconds(); el > 0 {
				rates[t] = float64(local) / 1e9 / el
			}
		}(t)
	}
	wg.Wait()
	var total float64
	for _, r := range rates {
		total += r
	}
	return Fig15Point{Side: "target", ObjectSize: valueSize, Threads: threads,
		GBPerSec: total}, nil
}
