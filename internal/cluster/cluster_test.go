package cluster

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/core"
	"rocksteady/internal/faultinject"
	"rocksteady/internal/server"
	"rocksteady/internal/storage"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Quiet = true
	if cfg.DataDir == "" && os.Getenv("FAULT_PERSIST") != "" {
		// make faults-persist: run the whole suite against the durable
		// FileStore backend instead of in-memory backups, proving the
		// fault scenarios hold regardless of where replicas live.
		cfg.DataDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = 64 << 10
	}
	if cfg.HashTableCapacity == 0 {
		cfg.HashTableCapacity = 1 << 16
	}
	c := New(cfg)
	c.Coordinator.Logf = t.Logf
	t.Cleanup(c.Close)
	return c
}

func loadN(t *testing.T, c *Cluster, table wire.TableID, n int) (keys, values [][]byte) {
	t.Helper()
	keys = make([][]byte, n)
	values = make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
		values[i] = []byte(fmt.Sprintf("value-%06d-payload", i))
	}
	if err := c.BulkLoad(context.Background(), table, keys, values); err != nil {
		t.Fatal(err)
	}
	return keys, values
}

func TestClusterBasicOps(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "users", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.Write(context.Background(), table, []byte("alice"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Read(context.Background(), table, []byte("alice"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("read: %q, %v", v, err)
	}
	if err := cl.Write(context.Background(), table, []byte("alice"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := cl.Read(context.Background(), table, []byte("alice")); string(v) != "v2" {
		t.Fatalf("overwrite not visible: %q", v)
	}
	if _, err := cl.Read(context.Background(), table, []byte("missing")); err != client.ErrNoSuchKey {
		t.Fatalf("missing key: %v", err)
	}
	if err := cl.Delete(context.Background(), table, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(context.Background(), table, []byte("alice")); err != client.ErrNoSuchKey {
		t.Fatalf("after delete: %v", err)
	}
	if err := cl.Delete(context.Background(), table, []byte("alice")); err != client.ErrNoSuchKey {
		t.Fatalf("double delete: %v", err)
	}
}

func TestClusterMultiOps(t *testing.T) {
	c := testCluster(t, Config{Servers: 3})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	var keys, values [][]byte
	for i := 0; i < 60; i++ {
		keys = append(keys, []byte(fmt.Sprintf("mk-%03d", i)))
		values = append(values, []byte(fmt.Sprintf("mv-%03d", i)))
	}
	if err := cl.MultiPut(context.Background(), table, keys, values); err != nil {
		t.Fatal(err)
	}
	got, err := cl.MultiGet(context.Background(), table, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if string(got[i]) != string(values[i]) {
			t.Fatalf("key %s: got %q want %q", keys[i], got[i], values[i])
		}
	}
	// Mixed present/absent.
	got, err = cl.MultiGet(context.Background(), table, [][]byte{keys[0], []byte("nope"), keys[1]})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != nil || string(got[0]) != string(values[0]) {
		t.Fatalf("mixed multiget: %q", got)
	}
}

func TestRocksteadyMigrationMovesEverything(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	// Table entirely on server 0.
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 3000)

	half := wire.FullRange().Split(2)[1]
	g, err := c.Migrate(context.Background(), table, half, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("migration failed: %v", res.Err)
	}
	if res.RecordsPulled == 0 || res.BytesPulled == 0 {
		t.Fatalf("nothing migrated: %+v", res)
	}

	// Every key must still read correctly (client follows the new map).
	moved := 0
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil {
			t.Fatalf("read %s after migration: %v", k, err)
		}
		if string(v) != string(values[i]) {
			t.Fatalf("key %s: got %q want %q", k, v, values[i])
		}
		if half.Contains(wire.HashKey(k)) {
			moved++
		}
	}
	if int64(moved) != res.RecordsPulled {
		t.Errorf("moved %d keys but pulled %d records", moved, res.RecordsPulled)
	}
	// Source must have dropped the migrated records.
	n, _ := c.Server(0).HashTable().CountRange(table, half)
	if n != 0 {
		t.Errorf("source still holds %d migrated records", n)
	}
	// Target serves them from its own hash table.
	n, _ = c.Server(1).HashTable().CountRange(table, half)
	if int(n) != moved {
		t.Errorf("target holds %d, want %d", n, moved)
	}
	// The lineage dependency must be gone.
	if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
		t.Errorf("dangling dependencies: %+v", deps)
	}
}

func TestMigrationRegistersLineageDependency(t *testing.T) {
	// Slow the fabric so the migration stays in flight long enough to
	// observe the dependency window.
	c := testCluster(t, Config{
		Servers: 2,
		Fabric:  transport.FabricConfig{BandwidthBytesPerSec: 2 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	loadN(t, c, table, 2000)
	half := wire.FullRange().Split(2)[0]
	g, err := c.Migrate(context.Background(), table, half, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	deps := c.Coordinator.Dependencies()
	if len(deps) != 1 {
		t.Fatalf("dependencies during migration: %+v", deps)
	}
	d := deps[0]
	if d.Source != c.Server(0).ID() || d.Target != c.Server(1).ID() || d.Table != table {
		t.Errorf("bad dependency: %+v", d)
	}
	res := g.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
		t.Errorf("dependency survived completion: %+v", deps)
	}
}

func TestReadsAndWritesDuringMigration(t *testing.T) {
	c := testCluster(t, Config{
		Servers: 2,
		Fabric:  transport.FabricConfig{BandwidthBytesPerSec: 8 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 4000)

	half := wire.FullRange().Split(2)[1]
	g, err := c.Migrate(context.Background(), table, half, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent client traffic throughout the migration: disjoint key
	// ranges per writer so last-acked-value tracking is exact.
	type lastWrite struct {
		key   []byte
		value []byte
	}
	var mu sync.Mutex
	acked := map[string]lastWrite{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcl := c.MustClient()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := (w*1000 + i) % len(keys)
				i++
				if i%3 == 0 {
					val := []byte(fmt.Sprintf("updated-w%d-%d", w, i))
					if err := wcl.Write(context.Background(), table, keys[idx], val); err == nil {
						mu.Lock()
						acked[string(keys[idx])] = lastWrite{key: keys[idx], value: val}
						mu.Unlock()
					}
				} else {
					_, err := wcl.Read(context.Background(), table, keys[idx])
					if err != nil && err != client.ErrNoSuchKey {
						t.Errorf("read during migration: %v", err)
						return
					}
				}
			}
		}(w)
	}
	res := g.Wait()
	close(stop)
	wg.Wait()
	if res.Err != nil {
		t.Fatalf("migration: %v", res.Err)
	}

	// Consistency audit: every acked write wins; everything else has its
	// loaded value.
	mu.Lock()
	defer mu.Unlock()
	for i, k := range keys {
		want := string(values[i])
		if lw, ok := acked[string(k)]; ok {
			want = string(lw.value)
		}
		got, err := cl.Read(context.Background(), table, k)
		if err != nil {
			t.Fatalf("post-migration read %s: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("key %s: got %q want %q", k, got, want)
		}
	}
}

func TestMissingKeyDuringMigration(t *testing.T) {
	c := testCluster(t, Config{
		Servers: 2,
		Fabric:  transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	loadN(t, c, table, 2000)
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A read of a key that does not exist anywhere must resolve to
	// NoSuchKey *during* the migration (via PriorityPull Missing), not
	// hang until the end.
	start := time.Now()
	_, err = cl.Read(context.Background(), table, []byte("never-written"))
	if err != client.ErrNoSuchKey {
		t.Fatalf("missing key during migration: %v", err)
	}
	if g.Wait(); time.Since(start) > 10*time.Second {
		t.Fatal("missing-key read took far too long")
	}
}

func TestMigrationVariantNoPriorityPulls(t *testing.T) {
	c := testCluster(t, Config{
		Servers:   2,
		Migration: core.Options{DisablePriorityPulls: true},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reads retry until background pulls deliver; they must eventually
	// succeed, and zero PriorityPulls must reach the source.
	for i := 0; i < 50; i++ {
		v, err := cl.Read(context.Background(), table, keys[i])
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("read %d: %q %v", i, v, err)
		}
	}
	res := g.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.PriorityPullRPCs != 0 {
		t.Errorf("PriorityPulls issued despite being disabled: %d", res.PriorityPullRPCs)
	}
}

func TestMigrationVariantSyncPriorityPulls(t *testing.T) {
	c := testCluster(t, Config{
		Servers:   2,
		Fabric:    transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
		Migration: core.Options{SyncPriorityPulls: true},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := cl.Read(context.Background(), table, keys[i])
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("read %d during sync-pp migration: %q %v", i, v, err)
		}
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestMigrationVariantSourceRetainsOwnership(t *testing.T) {
	c := testCluster(t, Config{
		Servers:           2,
		ReplicationFactor: 1,
		Migration:         core.Options{SourceRetainsOwnership: true},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)

	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// While migrating, the source still owns everything: writes land there
	// and must survive the eventual flip via the tail catch-up.
	updated := map[int][]byte{}
	for i := 0; i < 200; i += 10 {
		val := []byte(fmt.Sprintf("racing-update-%d", i))
		if err := cl.Write(context.Background(), table, keys[i], val); err != nil {
			t.Fatalf("write during retain-ownership migration: %v", err)
		}
		updated[i] = val
	}
	res := g.Wait()
	if res.Err != nil {
		t.Fatalf("migration: %v", res.Err)
	}
	for i, k := range keys {
		want := string(values[i])
		if u, ok := updated[i]; ok {
			want = string(u)
		}
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != want {
			t.Fatalf("key %s after flip: %q %v (want %q)", k, v, err, want)
		}
	}
	// The tablet must now be served by the target.
	n, _ := c.Server(1).HashTable().CountRange(table, wire.FullRange())
	if n == 0 {
		t.Error("target holds nothing after retain-ownership migration")
	}
}

func TestBaselineMigrationFull(t *testing.T) {
	c := testCluster(t, Config{Servers: 2, ReplicationFactor: 1})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)

	half := wire.FullRange().Split(2)[0]
	res, err := c.MigrateBaseline(context.Background(), table, half, 0, 1, core.BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("baseline moved nothing")
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s after baseline migration: %q %v", k, v, err)
		}
	}
	if n, _ := c.Server(0).HashTable().CountRange(table, half); n != 0 {
		t.Errorf("source still holds %d migrated records", n)
	}
}

func TestBaselineSkipVariantsDontFlipOwnership(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 500)
	for _, opts := range []core.BaselineOptions{
		{SkipRereplication: true},
		{SkipReplay: true},
		{SkipTx: true},
		{SkipCopy: true},
	} {
		res, err := c.MigrateBaseline(context.Background(), table, wire.FullRange(), 0, 1, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Records != 500 {
			t.Errorf("%+v: identified %d records, want 500", opts, res.Records)
		}
	}
	// Source still owns and serves everything.
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s: %q %v", k, v, err)
		}
	}
}

func TestSplitAndMigrateSubRange(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)
	// Migrate an arbitrary fine-grained slice: [1/4, 3/8) of hash space.
	quarter := wire.FullRange().Split(8)
	sub := wire.HashRange{Start: quarter[2].Start, End: quarter[2].End}
	g, err := c.Migrate(context.Background(), table, sub, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s: %q %v", k, v, err)
		}
	}
	// The map must now contain a tablet exactly covering sub on server 1.
	if err := cl.RefreshMap(context.Background()); err != nil {
		t.Fatal(err)
	}
	n, _ := c.Server(1).HashTable().CountRange(table, sub)
	if n == 0 {
		t.Error("target received no records for sub-range")
	}
}

func TestIndexScanEndToEnd(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "people", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cl.CreateIndex(context.Background(), table, []wire.ServerID{c.Server(0).ID(), c.Server(1).ID()}, [][]byte{[]byte("m")})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alice", "bob", "carol", "dave", "erin", "mallory", "nina", "oscar", "peggy", "trent"}
	for i, name := range names {
		pk := []byte(fmt.Sprintf("uid-%04d", i))
		if err := cl.Write(context.Background(), table, pk, []byte(name)); err != nil {
			t.Fatal(err)
		}
		if err := cl.IndexInsert(context.Background(), idx, []byte(name), pk); err != nil {
			t.Fatal(err)
		}
	}
	// Scan [b, e): bob, carol, dave.
	res, err := cl.IndexScan(context.Background(), table, idx, []byte("b"), []byte("e"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("scan returned %d results: %+v", len(res), res)
	}
	got := map[string]bool{}
	for _, r := range res {
		got[string(r.Value)] = true
	}
	for _, want := range []string{"bob", "carol", "dave"} {
		if !got[want] {
			t.Errorf("scan missing %q (got %v)", want, got)
		}
	}
	// Scan crossing into the second indexlet's range returns only the
	// first indexlet's span (single-indexlet scans, as in the paper).
	res, err = cl.IndexScan(context.Background(), table, idx, []byte("m"), []byte("p"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // mallory, nina, oscar
		t.Fatalf("second indexlet scan: %d results", len(res))
	}
}

func TestNormalCrashRecovery(t *testing.T) {
	c := testCluster(t, Config{Servers: 3, ReplicationFactor: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 1000)
	// Overwrite some and delete some, so recovery must honor versions and
	// tombstones.
	for i := 0; i < 100; i++ {
		if err := cl.Write(context.Background(), table, keys[i], []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 150; i++ {
		if err := cl.Delete(context.Background(), table, keys[i]); err != nil {
			t.Fatal(err)
		}
	}

	c.Crash(0)
	if err := cl.ReportCrash(context.Background(), c.Server(0).ID()); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()
	if err := cl.RefreshMap(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		switch {
		case i < 100:
			if err != nil || string(v) != "rewritten" {
				t.Fatalf("key %s: %q %v", k, v, err)
			}
		case i < 150:
			if err != client.ErrNoSuchKey {
				t.Fatalf("deleted key %s resurfaced: %q %v", k, v, err)
			}
		default:
			if err != nil || string(v) != string(values[i]) {
				t.Fatalf("key %s: %q %v", k, v, err)
			}
		}
	}
}

func TestCrashTargetDuringMigration(t *testing.T) {
	c := testCluster(t, Config{
		Servers:           3,
		ReplicationFactor: 2,
		Fabric:            transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 3000)

	half := wire.FullRange().Split(2)[1]
	if _, err := c.Migrate(context.Background(), table, half, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Push a few writes through the target (it owns the range now) so the
	// lineage replay has something to preserve.
	updated := map[string][]byte{}
	for i := 0; i < len(keys) && len(updated) < 20; i++ {
		if !half.Contains(wire.HashKey(keys[i])) {
			continue
		}
		val := []byte(fmt.Sprintf("target-write-%d", i))
		if err := cl.Write(context.Background(), table, keys[i], val); err != nil {
			t.Fatalf("write to migrating tablet: %v", err)
		}
		updated[string(keys[i])] = val
	}

	c.Crash(1) // kill the target mid-migration
	if err := cl.ReportCrash(context.Background(), c.Server(1).ID()); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()
	if err := cl.RefreshMap(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Ownership reverted to the source; every record — including writes
	// the dead target accepted — must read correctly.
	for i, k := range keys {
		want := string(values[i])
		if u, ok := updated[string(k)]; ok {
			want = string(u)
		}
		v, err := cl.Read(context.Background(), table, k)
		if err != nil {
			t.Fatalf("read %s after target crash: %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("key %s: got %q want %q", k, v, want)
		}
	}
	if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
		t.Errorf("dangling dependencies after crash recovery: %+v", deps)
	}
}

func TestCrashSourceDuringMigration(t *testing.T) {
	c := testCluster(t, Config{
		Servers:           3,
		ReplicationFactor: 2,
		Fabric:            transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 3000)

	half := wire.FullRange().Split(2)[1]
	if _, err := c.Migrate(context.Background(), table, half, 0, 1); err != nil {
		t.Fatal(err)
	}
	updated := map[string][]byte{}
	for i := 0; i < len(keys) && len(updated) < 20; i++ {
		if !half.Contains(wire.HashKey(keys[i])) {
			continue
		}
		val := []byte(fmt.Sprintf("during-mig-%d", i))
		if err := cl.Write(context.Background(), table, keys[i], val); err != nil {
			t.Fatalf("write: %v", err)
		}
		updated[string(keys[i])] = val
	}

	c.Crash(0) // kill the source mid-migration
	if err := cl.ReportCrash(context.Background(), c.Server(0).ID()); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()
	if err := cl.RefreshMap(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i, k := range keys {
		want := string(values[i])
		if u, ok := updated[string(k)]; ok {
			want = string(u)
		}
		v, err := cl.Read(context.Background(), table, k)
		if err != nil {
			t.Fatalf("read %s after source crash: %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("key %s: got %q want %q", k, v, want)
		}
	}
	if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
		t.Errorf("dangling dependencies: %+v", deps)
	}
}

func TestConcurrentMigrationsRejectedOnOverlap(t *testing.T) {
	c := testCluster(t, Config{
		Servers: 2,
		Fabric:  transport.FabricConfig{BandwidthBytesPerSec: 2 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	loadN(t, c, table, 2000)
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping second migration to the same target must be rejected.
	err = cl.MigrateTablet(context.Background(), table, wire.FullRange().Split(2)[0], c.Server(0).ID(), c.Server(1).ID())
	if err == nil {
		t.Error("overlapping migration accepted")
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestPartitionDuringMigrationThenRecovery(t *testing.T) {
	net := faultinject.NewNetwork(1)
	c := testCluster(t, Config{
		Servers:           3,
		ReplicationFactor: 2,
		Fabric:            transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
		RPCTimeout:        200 * time.Millisecond,
		Faults:            net,
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)

	// Sever source<->target for Pulls before the migration starts, so not
	// one Pull reaches the source: Pulls (and their retries) black-hole,
	// and the migration must fail cleanly rather than hang (the 200 ms
	// RPCTimeout bounds each attempt). Cutting the link after Migrate
	// returns would race the pulls, which can finish first.
	src, dst := c.Server(0).ID(), c.Server(1).ID()
	partition := func(on bool) {
		net.BlockOp(src, dst, wire.OpPull, on)
		net.BlockOp(dst, src, wire.OpPull, on)
	}
	partition(true)
	half := wire.FullRange().Split(2)[1]
	g, err := c.Migrate(context.Background(), table, half, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if res.Err == nil {
		t.Fatal("migration succeeded across a partition")
	}
	if net.Stats().Blocked.Load() == 0 {
		t.Fatal("no Pull reached the partition")
	}
	// The operator declares the isolated target dead; recovery reverts the
	// tablet to the source side and service resumes for every key.
	partition(false)
	c.Crash(1)
	if err := cl.ReportCrash(context.Background(), c.Server(1).ID()); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()
	if err := cl.RefreshMap(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("read %s after partition recovery: %q %v", k, v, err)
		}
	}
}

func TestSideLogAblationStillCorrect(t *testing.T) {
	// DisableSideLogs replays into the main log (the §3.1.3 contention
	// ablation); correctness must be unaffected.
	c := testCluster(t, Config{
		Servers:   2,
		Migration: core.Options{DisableSideLogs: true},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 2000)
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s: %q %v", k, v, err)
		}
	}
}

func TestSequentialMigrationsRoundTrip(t *testing.T) {
	// Migrate everything 0 -> 1, then back 1 -> 0: exercises repeated
	// ownership transfer, DropTablet cleanup, and version monotonicity.
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 1500)
	for hop, pair := range [][2]int{{0, 1}, {1, 0}, {0, 1}} {
		g, err := c.Migrate(context.Background(), table, wire.FullRange(), pair[0], pair[1])
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if res := g.Wait(); res.Err != nil {
			t.Fatalf("hop %d: %v", hop, res.Err)
		}
		// Overwrite a few keys between hops so versions keep mattering.
		for i := 0; i < 50; i++ {
			values[i] = []byte(fmt.Sprintf("hop%d-%d", hop, i))
			if err := cl.Write(context.Background(), table, keys[i], values[i]); err != nil {
				t.Fatalf("hop %d write: %v", hop, err)
			}
		}
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s after 3 hops: %q %v", k, v, err)
		}
	}
	// All data must live on server 1 (last hop target), none on server 0.
	if n, _ := c.Server(0).HashTable().CountRange(table, wire.FullRange()); n != 0 {
		t.Errorf("server 0 still holds %d records", n)
	}
}

// TestMigrateBackClearsStaleCopy: a migration drops its source's copy with
// one best-effort attempt, so a source can keep a stale copy of a range it
// gave away. When the range migrates back, that copy must not resurrect a
// key deleted in the meantime: replay is newest-wins, and a deleted key
// ships no record to beat the stale one.
func TestMigrateBackClearsStaleCopy(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	ctx := context.Background()
	table, err := cl.CreateTable(ctx, "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 100)
	migrate := func(from, to int) {
		t.Helper()
		g, err := c.Migrate(ctx, table, wire.FullRange(), from, to)
		if err != nil {
			t.Fatal(err)
		}
		if res := g.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	migrate(0, 1)
	// What a drop that never landed leaves behind on the old source.
	old := c.Server(0)
	old.RegisterTablet(table, wire.FullRange(), server.TabletMigratingOut)
	ref, _, err := old.Log().AppendObject(table, keys[0], values[0])
	if err != nil {
		t.Fatal(err)
	}
	old.HashTable().Put(table, keys[0], wire.HashKey(keys[0]), ref)

	if err := cl.Delete(ctx, table, keys[0]); err != nil {
		t.Fatal(err)
	}
	migrate(1, 0)
	if v, err := cl.Read(ctx, table, keys[0]); err != client.ErrNoSuchKey {
		t.Fatalf("deleted key after migrating back: %q %v", v, err)
	}
	if v, err := cl.Read(ctx, table, keys[1]); err != nil || string(v) != string(values[1]) {
		t.Fatalf("live key after migrating back: %q %v", v, err)
	}
}

// TestMigrateOntoServedRangeRefused: a target drops what it holds of the
// range before the migration starts, taking it for a stale copy. A target
// that serves part of the range holds live records there, so the
// migration is refused and every record stays readable.
func TestMigrateOntoServedRangeRefused(t *testing.T) {
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	ctx := context.Background()
	table, err := cl.CreateTable(ctx, "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 1000)
	// The source owns the start of the full range, the target the rest.
	if g, err := c.Migrate(ctx, table, wire.FullRange(), 0, 1); err == nil && g.Wait().Err == nil {
		t.Fatal("migration onto a range the target serves succeeded")
	}
	for i, k := range keys {
		if v, err := cl.Read(ctx, table, k); err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s after the refused migration: %q %v", k, v, err)
		}
	}
}

// TestMigrationTombstoneSweep: deletes during a migration park tombstones
// in the target's hash table, and the epilogue sweeps every one of them; a
// migration during which no deletion was parked runs no tombstone sweep.
func TestMigrationTombstoneSweep(t *testing.T) {
	c := testCluster(t, Config{Servers: 2, Fabric: transport.FabricConfig{BandwidthBytesPerSec: 4 << 20}})
	cl := c.MustClient()
	ctx := context.Background()
	table, err := cl.CreateTable(ctx, "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := loadN(t, c, table, 40000)
	tombstones := func(s *server.Server) (n int) {
		s.HashTable().ForEach(func(_ uint64, ref storage.Ref) bool {
			if h, err := ref.Header(); err == nil && h.Table == table && h.Type == storage.EntryTombstone {
				n++
			}
			return true
		})
		return n
	}
	migrate := func(from, to int, during func(dst *server.Server)) {
		t.Helper()
		g, err := c.Migrate(ctx, table, wire.FullRange(), from, to)
		if err != nil {
			t.Fatal(err)
		}
		during(c.Server(to))
		select {
		case <-g.Done():
			t.Fatal("the migration finished before the test acted during it")
		default:
		}
		if res := g.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	deleted := keys[:5]
	migrate(0, 1, func(*server.Server) {
		for _, k := range deleted {
			if err := cl.Delete(ctx, table, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n := tombstones(c.Server(1)); n != 0 {
		t.Fatalf("%d parked tombstones left after the migration", n)
	}
	for _, k := range deleted {
		if v, err := cl.Read(ctx, table, k); err != client.ErrNoSuchKey {
			t.Fatalf("deleted key %s reads %q %v", k, v, err)
		}
	}

	// Back with no deletes. A tombstone put into the target's hash table
	// without counting as parked stays there: no tombstone sweep ran.
	migrate(1, 0, func(dst *server.Server) {
		key := []byte("uncounted")
		ref, err := dst.Log().Append(0, storage.EntryTombstone, table, dst.Log().NextVersion(), 0, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst.HashTable().Put(table, key, wire.HashKey(key), ref)
	})
	if n := tombstones(c.Server(0)); n != 1 {
		t.Fatalf("%d tombstones after a migration without deletes, want the 1 put there", n)
	}
}

func TestConcurrentDisjointMigrations(t *testing.T) {
	// Two disjoint ranges migrate simultaneously from one overloaded
	// source to two different targets: the scale-out scenario of §1.
	c := testCluster(t, Config{Servers: 3})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 3000)

	quarters := wire.FullRange().Split(4)
	g1, err := c.Migrate(context.Background(), table, quarters[1], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Migrate(context.Background(), table, quarters[3], 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res := g1.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := g2.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s: %q %v", k, v, err)
		}
	}
	// Each target holds exactly its quarter; the source keeps the rest.
	if n, _ := c.Server(1).HashTable().CountRange(table, quarters[1]); n == 0 {
		t.Error("target 1 empty")
	}
	if n, _ := c.Server(2).HashTable().CountRange(table, quarters[3]); n == 0 {
		t.Error("target 2 empty")
	}
	if n, _ := c.Server(0).HashTable().CountRange(table, quarters[1]); n != 0 {
		t.Error("source still holds quarter 1")
	}
}

func TestMigrateEmptyRange(t *testing.T) {
	// Migrating a range with zero records must complete cleanly (an edge
	// the bucket-token iteration and completion logic must handle).
	c := testCluster(t, Config{Servers: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Migrate(context.Background(), table, wire.FullRange().Split(2)[1], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.RecordsPulled != 0 {
		t.Fatalf("pulled %d from empty range", res.RecordsPulled)
	}
	if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
		t.Fatalf("deps: %+v", deps)
	}
}

func TestDeleteDuringMigration(t *testing.T) {
	// Slow fabric: deletes genuinely interleave with bulk pulls, so the
	// tombstone-parking logic (not timing luck) must keep deleted keys
	// dead when their stale bulk copies arrive afterwards.
	c := testCluster(t, Config{
		Servers: 2,
		Fabric:  transport.FabricConfig{BandwidthBytesPerSec: 1 << 20},
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := loadN(t, c, table, 20000)
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a handful of keys mid-migration; tombstone versions beat the
	// later-arriving bulk copies, so the deletes must stick.
	deleted := map[string]bool{}
	for i := 0; i < 20; i++ {
		select {
		case <-g.Done():
			t.Skip("migration finished before deletes interleaved; slow the fabric further")
		default:
		}
		if err := cl.Delete(context.Background(), table, keys[i*37]); err != nil && err != client.ErrNoSuchKey {
			t.Fatalf("delete during migration: %v", err)
		}
		deleted[string(keys[i*37])] = true
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for k := range deleted {
		if _, err := cl.Read(context.Background(), table, []byte(k)); err != client.ErrNoSuchKey {
			t.Fatalf("deleted key %q resurfaced: %v", k, err)
		}
	}
}
