package bench

import (
	"fmt"
	"math/rand"

	"rocksteady/internal/storage"
	"rocksteady/internal/wire"
)

// CleanerRow is one memory-utilization level of the cleaner study.
type CleanerRow struct {
	// Utilization is live bytes / total log bytes maintained (0..1).
	Utilization float64
	// WriteAmplification is bytes appended (including relocations) per
	// byte of new user data.
	WriteAmplification float64
	// CleanerPasses run to hold the utilization level.
	CleanerPasses int
}

// CleanerUtilization measures the log cleaner's write amplification as
// memory utilization rises — the log-structured-memory result (§2:
// "RAMCloud sustains 80–90% memory utilization with high performance")
// that makes DRAM cost-effective and motivates keeping the cleaner
// unconstrained by physical partitioning (§5.1).
//
// The workload overwrites uniformly random keys while the cleaner holds
// the segment count at a level corresponding to the target utilization.
func CleanerUtilization(p Params, utilizations []float64) ([]CleanerRow, error) {
	p.applyDefaults()
	if len(utilizations) == 0 {
		utilizations = []float64{0.5, 0.7, 0.8, 0.9}
	}
	var rows []CleanerRow
	for _, u := range utilizations {
		row, err := cleanerRun(p, u)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		p.logf("cleaner u=%.2f write-amp=%.2f passes=%d", row.Utilization, row.WriteAmplification, row.CleanerPasses)
	}
	return rows, nil
}

func cleanerRun(p Params, utilization float64) (CleanerRow, error) {
	const segSize = 64 << 10
	log := storage.NewShardedLog(segSize, 1, nil)
	ht := storage.NewHashTable(p.Objects)
	cleaner := storage.NewCleaner(log, ht)
	cleaner.WriteCostThreshold = 0.98

	keys := p.Objects / 10
	if keys < 100 {
		keys = 100
	}
	value := make([]byte, p.ValueSize)
	write := func(i int) error {
		key := []byte(fmt.Sprintf("obj-%010d", i%keys))
		ref, _, err := log.AppendObject(1, key, value)
		if err != nil {
			return err
		}
		hash := wire.HashKey(key)
		if prev, existed := ht.Put(1, key, hash, ref); existed {
			log.MarkDead(prev)
		}
		return nil
	}
	// Fill the live set.
	for i := 0; i < keys; i++ {
		if err := write(i); err != nil {
			return CleanerRow{}, err
		}
	}
	_, liveBytes, _, _ := log.Stats()
	// The budget of total log bytes implied by the utilization target.
	budgetSegments := int(float64(liveBytes)/utilization)/segSize + 1

	// Steady state: uniformly random overwrites (sequential overwrites
	// would age segments FIFO and make cleaning free); when the log
	// exceeds its budget, clean.
	rng := rand.New(rand.NewSource(42))
	passes := 0
	var userBytes int64
	appendedBefore := appendedOf(log)
	for i := 0; i < p.Objects; i++ {
		if err := write(rng.Intn(keys)); err != nil {
			return CleanerRow{}, err
		}
		userBytes += int64(storage.EntrySize(14, p.ValueSize))
		for log.SegmentCount() > budgetSegments {
			if _, ok := cleaner.CleanOnce(); !ok {
				break
			}
			passes++
		}
	}
	appendedAfter := appendedOf(log)
	row := CleanerRow{
		Utilization:   utilization,
		CleanerPasses: passes,
	}
	if userBytes > 0 {
		row.WriteAmplification = float64(appendedAfter-appendedBefore) / float64(userBytes)
	}
	return row, nil
}

func appendedOf(log *storage.Log) int64 {
	_, _, appended, _ := log.Stats()
	return appended
}
