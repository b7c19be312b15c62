package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
	"rocksteady/internal/ycsb"
)

// The multi-core scaling proof for the lock-free read fast path: these
// benchmarks drive the request handlers directly (routing snapshot →
// seqlock hash-table lookup → sharded stat counting → response), the part
// of the read path the tentpole made lock-free, from N goroutines via
// b.RunParallel. Run with -cpu 1,2,4,8 to get the scaling curve; `make
// bench-scale` records it in BENCH_hotpath.json's "scaling" section.
//
// Distributions follow the paper's workloads: uniform, and zipfian(0.99)
// (YCSB's default skew — the worst case for stripe contention because hot
// keys concentrate on few stripes). The "migration" variants run the
// background traffic Rocksteady's whole design is about surviving:
// PutIfNewer replay, Pull-style range scans, and cleaner passes on the
// same stripes the readers are hitting.

const (
	scaleObjects = 32 << 10
	scaleValue   = 100 // paper's YCSB object size
)

type scaleRig struct {
	srv   *Server
	keys  [][]byte
	close func()
}

func newScaleRig(b *testing.B) *scaleRig {
	b.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	// 8 workers = 8 stat shards and 8 log shard heads, enough for the
	// -cpu 1,2,4,8 write-scaling curve to spread appends across heads.
	srv := New(Config{ID: 10, Workers: 8}, f.Attach(10))
	srv.RegisterTablet(1, wire.FullRange(), TabletNormal)
	keys := make([][]byte, scaleObjects)
	value := make([]byte, scaleValue)
	spill := srv.stats.shard(-1)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("scale-key-%08d", i))
		if _, st := srv.applyWrite(spill, 1, keys[i], wire.HashKey(keys[i]), value); st != wire.StatusOK {
			b.Fatalf("preload write %d: status %v", i, st)
		}
	}
	return &scaleRig{srv: srv, keys: keys, close: func() { srv.Close() }}
}

func newChooser(dist string, b *testing.B) ycsb.KeyChooser {
	switch dist {
	case "uniform":
		return ycsb.NewUniform(scaleObjects)
	case "zipfian":
		return ycsb.NewZipfian(scaleObjects, 0.99)
	default:
		b.Fatalf("unknown distribution %q", dist)
		return nil
	}
}

// startMigrationLoad emulates a concurrent migration against the rig:
// replay writes (PutIfNewer with fresh versions), source-side Pull scans
// over the full range, and periodic cleaner passes — all on the stripes
// the benchmark's readers are hitting. Returns a stop function.
func (r *scaleRig) startMigrationLoad() func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // replay traffic
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		value := []byte("migrated-value")
		for {
			select {
			case <-stop:
				return
			default:
			}
			key := r.keys[rng.Intn(len(r.keys))]
			hash := wire.HashKey(key)
			v := r.srv.log.NextVersion()
			ref, err := r.srv.log.Append(0, storage.EntryObject, 1, v, 0, key, value)
			if err != nil {
				return
			}
			if prev, stored := r.srv.ht.PutIfNewer(1, key, hash, ref, v); stored && !prev.IsZero() {
				r.srv.log.MarkDead(prev)
			} else if !stored {
				r.srv.log.MarkDead(ref)
			}
		}
	}()

	wg.Add(1)
	go func() { // Pull-style scans
		defer wg.Done()
		var token uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var n int
			next, done := r.srv.ht.ScanRange(1, wire.FullRange(), token, func(ref storage.Ref) bool {
				n++
				return n < 512 // paper-sized pull batches
			})
			token = next
			if done {
				token = 0
			}
		}
	}()

	wg.Add(1)
	go func() { // cleaner relocation
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.srv.cleaner.CleanOnce()
		}
	}()

	return func() {
		close(stop)
		wg.Wait()
	}
}

// workerCounter hands each RunParallel goroutine its own stat shard, the
// way dispatch workers get theirs by worker index.
type workerCounter struct{ n atomic.Int64 }

func (w *workerCounter) next(max int) int { return int(w.n.Add(1)-1) % max }

func benchmarkReadScaling(b *testing.B, dist string, migration bool) {
	rig := newScaleRig(b)
	defer rig.close()
	if migration {
		defer rig.startMigrationLoad()()
	}
	var wc workerCounter
	shards := rig.srv.cfg.Workers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := rig.srv.stats.shard(wc.next(shards))
		chooser := newChooser(dist, b)
		rng := rand.New(rand.NewSource(int64(wc.n.Load())))
		req := &wire.ReadRequest{Table: 1}
		for pb.Next() {
			req.Key = rig.keys[chooser.Next(rng)]
			if resp := rig.srv.handleRead(st, req); resp.Status != wire.StatusOK {
				b.Errorf("read status %v", resp.Status)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// benchmarkMixedScaling drives a read/write mix; writePct selects the
// workload shape: 5 is YCSB-B (95/5), 50 is the put-heavy YCSB-A/F style
// mix that exercises the sharded log heads — each RunParallel goroutine
// appends through its own worker's head, the write-path analogue of the
// read benches' sharded stat counters.
func benchmarkMixedScaling(b *testing.B, dist string, migration bool, writePct int) {
	rig := newScaleRig(b)
	defer rig.close()
	if migration {
		defer rig.startMigrationLoad()()
	}
	var wc workerCounter
	shards := rig.srv.cfg.Workers
	value := make([]byte, scaleValue)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		st := rig.srv.stats.shard(wc.next(shards))
		chooser := newChooser(dist, b)
		rng := rand.New(rand.NewSource(int64(wc.n.Load())))
		req := &wire.ReadRequest{Table: 1}
		for pb.Next() {
			key := rig.keys[chooser.Next(rng)]
			if rng.Intn(100) < writePct {
				hash := wire.HashKey(key)
				if _, status := rig.srv.applyWrite(st, 1, key, hash, value); status != wire.StatusOK {
					b.Errorf("write status %v", status)
					return
				}
				st.writes.Add(1)
				continue
			}
			req.Key = key
			if resp := rig.srv.handleRead(st, req); resp.Status != wire.StatusOK {
				b.Errorf("read status %v", resp.Status)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkReadScaling(b *testing.B) {
	for _, dist := range []string{"uniform", "zipfian"} {
		for _, bg := range []string{"idle", "migration"} {
			b.Run(fmt.Sprintf("dist=%s/bg=%s", dist, bg), func(b *testing.B) {
				benchmarkReadScaling(b, dist, bg == "migration")
			})
		}
	}
}

func BenchmarkMixedScaling(b *testing.B) {
	for _, dist := range []string{"uniform", "zipfian"} {
		for _, mix := range []struct {
			name     string
			writePct int
		}{{"ycsbB", 5}, {"ycsbA", 50}} {
			b.Run(fmt.Sprintf("dist=%s/mix=%s", dist, mix.name), func(b *testing.B) {
				benchmarkMixedScaling(b, dist, false, mix.writePct)
			})
		}
	}
}

// TestScalingBenchArtifact runs the scaling matrix at 1/2/4/8 simulated
// cores and merges a "scaling" section into the artifact named by
// BENCH_SCALE_JSON (other sections of the file are preserved). Gated so
// regular `go test` runs stay fast; `make bench-scale` drives it.
func TestScalingBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_SCALE_JSON")
	if path == "" {
		t.Skip("set BENCH_SCALE_JSON=<path> to emit the scaling artifact")
	}
	type row struct {
		Name      string  `json:"name"`
		CPUs      int     `json:"cpus"`
		NsPerOp   float64 `json:"ns_per_op"`
		OpsPerSec float64 `json:"ops_per_sec"`
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"ReadScaling/uniform/idle", func(b *testing.B) { benchmarkReadScaling(b, "uniform", false) }},
		{"ReadScaling/zipfian/idle", func(b *testing.B) { benchmarkReadScaling(b, "zipfian", false) }},
		{"ReadScaling/uniform/migration", func(b *testing.B) { benchmarkReadScaling(b, "uniform", true) }},
		{"MixedScaling/uniform", func(b *testing.B) { benchmarkMixedScaling(b, "uniform", false, 5) }},
		{"MixedScaling/uniform/putheavy", func(b *testing.B) { benchmarkMixedScaling(b, "uniform", false, 50) }},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var rows []row
	for _, bench := range benches {
		for _, cpus := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(cpus)
			r := testing.Benchmark(bench.fn)
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			opsPerSec := float64(r.N) / r.T.Seconds()
			rows = append(rows, row{Name: bench.name, CPUs: cpus, NsPerOp: nsPerOp, OpsPerSec: opsPerSec})
			t.Logf("%s -cpu %d: %.0f ns/op  %.0f ops/s", bench.name, cpus, nsPerOp, opsPerSec)
		}
	}
	runtime.GOMAXPROCS(prev)

	// Merge, preserving whatever other sections the artifact holds.
	sections := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &sections); err != nil {
			t.Fatalf("existing artifact %s is not a JSON object: %v", path, err)
		}
	}
	enc, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	sections["scaling"] = enc
	out, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
