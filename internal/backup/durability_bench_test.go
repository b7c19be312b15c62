package backup

// durability_bench_test.go measures replication flush throughput across
// the SegmentStore backends: MemStore (no durability cost), FileStore
// with the batched group fsync, and FileStore syncing every append (the
// unbatched baseline the group fsync must beat). Concurrent replication
// streams drive Store.HandleReplicateBatch, whose ack-after-Sync contract is
// exactly what a master's group commit waits on — so the MB/s here is
// the durable replication ceiling a backup contributes.
//
// `make bench-durability` runs the matrix and merges a "durability"
// section into BENCH_hotpath.json via TestDurabilityBenchArtifact.

import (
	"bytes"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"rocksteady/internal/wire"
)

// flushSpan is one replication span: the replicator ships spans of about
// this size per backup under a write-heavy load.
const flushSpan = 4 << 10

// flushSegmentBytes rolls to a new segment at the real log's default
// rotation point so seals (and their manifest records) are in the loop.
const flushSegmentBytes = 1 << 20

// flushBatchChunks is how many spans one replicator group-commit batch
// carries: each benchmark op is one ReplicateBatch of this many
// contiguous spans, acked by ONE backend Sync — the shape the batched
// fsync exists for. The unbatched baseline fsyncs every chunk instead.
const flushBatchChunks = 8

func benchmarkReplicationFlush(b *testing.B, mk func(tb testing.TB) SegmentStore) {
	b.Helper()
	s := NewStoreWith(mk(b))
	b.Cleanup(func() { s.Close() })
	data := bytes.Repeat([]byte{0xaa}, flushSpan)
	var nextLog atomic.Uint64
	b.SetBytes(flushSpan * flushBatchChunks)
	// Several streams per core: a backup serves every master in the
	// cluster concurrently, and concurrent callers additionally coalesce
	// in the backend's group fsync — measurable even on one core.
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine is one master's replication stream: its own
		// logID, rolling segments, batches of contiguous spans.
		logID := nextLog.Add(1)
		segID := uint64(1)
		var off uint32
		chunks := make([]wire.ReplicateChunk, flushBatchChunks)
		for pb.Next() {
			for i := range chunks {
				chunks[i] = wire.ReplicateChunk{LogID: logID, SegmentID: segID, Offset: off, Data: data}
				off += flushSpan
				if off >= flushSegmentBytes {
					chunks[i].Close = true
					segID++
					off = 0
				}
			}
			resp := s.HandleReplicateBatch(&wire.ReplicateBatchRequest{Master: 1, Chunks: chunks})
			if resp.Status != wire.StatusOK {
				b.Errorf("batch status %v", resp.Status)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)*flushSpan*flushBatchChunks/b.Elapsed().Seconds()/1e6, "MB/s")
}

func flushBackends() []struct {
	name string
	mk   func(tb testing.TB) SegmentStore
} {
	openFile := func(tb testing.TB, opts FileStoreOptions) SegmentStore {
		fs, err := OpenFileStore(tb.TempDir(), opts)
		if err != nil {
			tb.Fatal(err)
		}
		return fs
	}
	return []struct {
		name string
		mk   func(tb testing.TB) SegmentStore
	}{
		{"mem", func(tb testing.TB) SegmentStore { return NewMemStore() }},
		{"file-batched", func(tb testing.TB) SegmentStore { return openFile(tb, FileStoreOptions{}) }},
		{"file-unbatched", func(tb testing.TB) SegmentStore { return openFile(tb, FileStoreOptions{SyncEveryAppend: true}) }},
	}
}

func BenchmarkReplicationFlush(b *testing.B) {
	for _, backend := range flushBackends() {
		b.Run(backend.name, func(b *testing.B) {
			benchmarkReplicationFlush(b, backend.mk)
		})
	}
}

// TestDurabilityBenchArtifact runs the flush matrix and merges a
// "durability" section into the artifact named by BENCH_DURABILITY_JSON
// (other sections are preserved). Gated so regular `go test` runs stay
// fast; `make bench-durability` drives it.
func TestDurabilityBenchArtifact(t *testing.T) {
	path := os.Getenv("BENCH_DURABILITY_JSON")
	if path == "" {
		t.Skip("set BENCH_DURABILITY_JSON=<path> to emit the durability artifact")
	}
	type row struct {
		Name      string  `json:"name"`
		NsPerOp   float64 `json:"ns_per_op"`
		MBPerSec  float64 `json:"mb_per_sec"`
		SpanBytes int     `json:"span_bytes"`
	}
	var rows []row
	for _, backend := range flushBackends() {
		backend := backend
		r := testing.Benchmark(func(b *testing.B) {
			benchmarkReplicationFlush(b, backend.mk)
		})
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		mbPerSec := float64(r.N) * flushSpan * flushBatchChunks / r.T.Seconds() / 1e6
		rows = append(rows, row{
			Name:    "ReplicationFlush/" + backend.name,
			NsPerOp: nsPerOp, MBPerSec: mbPerSec, SpanBytes: flushSpan,
		})
		t.Logf("%s: %.0f ns/op  %.1f MB/s", backend.name, nsPerOp, mbPerSec)
	}
	// The section is only worth publishing if batching actually pays:
	// group fsync must beat fsync-per-append on flush throughput.
	var batched, unbatched float64
	for _, r := range rows {
		switch r.Name {
		case "ReplicationFlush/file-batched":
			batched = r.MBPerSec
		case "ReplicationFlush/file-unbatched":
			unbatched = r.MBPerSec
		}
	}
	if batched <= unbatched {
		t.Errorf("group fsync (%.1f MB/s) does not beat fsync-per-append (%.1f MB/s)", batched, unbatched)
	}

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
	sections["durability"] = enc
	out, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
