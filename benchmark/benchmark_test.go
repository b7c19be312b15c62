package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"rocksteady/internal/wire"
)

// toy shrinks a scenario so a whole run takes about a second.
func toy(sc scenario) scenario {
	sc.records = 10_000
	sc.rounds = 1
	return sc
}

// specNames reads the metric and workload names BENCHMARK.json promises.
func specNames(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range sp.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var have []string
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(have)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(have) != len(want) {
		t.Fatalf("%s: run printed %d metrics %v, BENCHMARK.json lists %d %v", what, len(have), have, len(want), want)
	}
	for i := range have {
		if have[i] != want[i] {
			t.Fatalf("%s: run printed %q where BENCHMARK.json lists %q", what, have[i], want[i])
		}
	}
}

// TestWorkloadsAtToyScale runs every workload end to end, untraced, and
// checks it against BENCHMARK.json: same workloads, same end-to-end names.
func TestWorkloadsAtToyScale(t *testing.T) {
	workloads, endToEnd, _ := specNames(t)
	if len(workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(workloads), len(scenarios))
	}
	for i, sc := range scenarios {
		if workloads[i] != sc.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, workloads[i], sc.name)
		}
		res, err := run(context.Background(), io.Discard, toy(sc), 1, 0.6, false)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < int64(toy(sc).records) {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", sc.name, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, sc.name, res.Metrics, endToEnd)
		for _, name := range []string{"setup_s", "kops", "read_p50_us", "migration_mbps", "recovery_s_per_gb"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", sc.name, name, res.Metrics[name].Value)
			}
		}
	}
}

// TestTracedRunEmitsEveryLayerMetric runs one traced workload and checks
// the per-layer names against BENCHMARK.json and the span file.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	_, _, perLayer := specNames(t)
	// The span file goes to benchmark/out under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	res, err := run(context.Background(), io.Discard, toy(scenarios[1]), 1, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run not correct: %d of %d failed", res.Failed, res.Attempted)
	}
	sameNames(t, "traced", res.Metrics, perLayer)
	for _, name := range []string{"wire.roundtrip_read_ns", "transport.tcp_rtt_p50_ns", "storage.ht_get_ns",
		"server.read_rpc_ns", "backup.sync_ns", "core.pull_only_mbps", "recovery.replayer_mbps", "bench.ladder_client_ns"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
	info, err := os.Stat("benchmark/out/" + scenarios[1].name + ".trace.jsonl")
	if err != nil || info.Size() == 0 {
		t.Fatalf("span file: %v", err)
	}
}

func TestRecorderPercentiles(t *testing.T) {
	var a, b samples
	for i := int64(1000); i >= 1; i-- { // 1..1000 ns, unsorted, split over two connections
		if i%2 == 0 {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	rec := merge(a, b)
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}} {
		if got, ok := rec.percentile(c.p); !ok || got != c.want {
			t.Errorf("p%g = %d, %v; want %d", c.p, got, ok, c.want)
		}
	}
	// p99.9 of 1000 samples has one sample beyond it: refused.
	if _, ok := rec.percentile(99.9); ok {
		t.Error("p99.9 of 1000 samples was printed with fewer than ten samples beyond it")
	}
	if _, ok := rec[:15].percentile(50); ok {
		t.Error("p50 of 15 samples was printed with fewer than ten samples beyond it")
	}
	if rec[:15].micros(50) != 0 {
		t.Error("a refused percentile must read 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "rpc", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "rpc-overlapping", Start: 20, End: 50},
		{ID: 4, Parent: 1, Op: 1, Name: "rpc-overrunning", Start: 90, End: 120},
		{ID: 5, Parent: 2, Op: 1, Name: "storage", Start: 12, End: 17},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	for id, want := range map[uint64]int64{1: 50, 2: 15, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// startToyRound sets up a one-round toy cluster for tests that drive the
// generator by hand.
func startToyRound(t *testing.T, sc scenario) *round {
	t.Helper()
	r := &round{sc: toy(sc), ctx: context.Background(), res: &roundResult{failures: make(map[string]int64)}}
	if err := r.setup(1, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.tb.shutdown)
	return r
}

// TestStallShowsInDueTimeLatencyOnly occupies every worker of the only
// data server for 50 ms under an open loop: the operations queued behind
// the stall are late from their due times, while timed from when they were
// actually sent only the ones in flight are.
func TestStallShowsInDueTimeLatencyOnly(t *testing.T) {
	r := startToyRound(t, scenarios[2]) // everything on server 0
	const stall = 50 * time.Millisecond
	interval := time.Second * connections / openLoopRate
	ops := int(200 * time.Millisecond / interval)
	go func() {
		time.Sleep(40 * time.Millisecond)
		for i := 0; i < workersPerServer; i++ {
			r.tb.servers[0].Scheduler().Enqueue(wire.PriorityPriorityPull, func() { time.Sleep(stall) })
		}
	}()
	t0 := time.Now()
	r.each(func(c *conn) { c.openLoop(r.ctx, t0, 0, interval, ops) })

	var fromDue, fromSend int
	for _, c := range r.conns {
		for _, op := range c.open {
			if !op.ok {
				t.Fatalf("operation failed: %v", c.failures)
			}
			if op.lat > (stall / 5).Nanoseconds() {
				fromDue++
			}
			if op.lat-op.late > (stall / 5).Nanoseconds() {
				fromSend++
			}
		}
	}
	// 40 ms of backlog at 10 000 ops/s is 400 operations; allow for a slow box.
	if fromDue < 100 {
		t.Errorf("%d operations were over 10 ms late from their due time; the 50 ms stall should delay hundreds", fromDue)
	}
	// Only the operations in flight when the stall began wait it out after
	// being sent; a slow box (the race detector) adds a few stragglers.
	if fromSend*10 > fromDue {
		t.Errorf("%d operations took over 10 ms from send against %d from their due time", fromSend, fromDue)
	}
}

func TestCheckVerdicts(t *testing.T) {
	d := newDataset(100, 7)
	good := d.value(5, 3)
	flipped := append([]byte(nil), good...)
	flipped[60] ^= 1
	for _, c := range []struct {
		name   string
		lo, hi uint32
		got    []byte
		want   string
	}{
		{"exact", 3, 3, good, verdictOK},
		{"in flight", 2, 4, good, verdictOK},
		{"stale", 4, 4, good, verdictStale},
		{"future", 1, 2, good, verdictFuture},
		{"other item", 0, 9, d.value(6, 3), verdictWrongItem},
		{"flipped byte", 3, 3, flipped, verdictCorrupt},
		{"truncated", 3, 3, good[:50], verdictCorrupt},
		{"absent", 3, 3, nil, verdictMissing},
	} {
		if got := d.check(5, c.lo, c.hi, c.got); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCorruptedValueFailsTheRun stores one wrong byte behind the oracle's
// back and expects the read-back to count it.
func TestCorruptedValueFailsTheRun(t *testing.T) {
	r := startToyRound(t, scenarios[1])
	bad := r.d.value(77, r.d.acked[77].Load()) // the warm-up may have rewritten it
	bad[40] ^= 0xff
	if err := r.conns[0].cl.Write(r.ctx, r.table, r.d.key(77), bad); err != nil {
		t.Fatal(err)
	}
	if err := r.readBack(); err != nil {
		t.Fatal(err)
	}
	if r.res.failed != 1 || r.res.failures["readback_"+verdictCorrupt] != 1 {
		t.Fatalf("failed = %d, kinds %v; want exactly one corrupt read-back", r.res.failed, r.res.failures)
	}
}
