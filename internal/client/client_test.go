package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/cluster"
	"rocksteady/internal/wire"
)

func newTestCluster(t *testing.T, servers int) (*cluster.Cluster, *client.Client) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Servers:           servers,
		Workers:           2,
		SegmentSize:       64 << 10,
		HashTableCapacity: 1 << 14,
		Quiet:             true,
	})
	t.Cleanup(c.Close)
	return c, c.MustClient()
}

func TestClientReadYourWrites(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := cl.Write(context.Background(), table, k, []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("read-your-write %s: %q %v", k, v, err)
		}
	}
	if cl.Stats().Ops.Load() != 200 {
		t.Errorf("ops counter = %d", cl.Stats().Ops.Load())
	}
	if cl.Stats().RPCs.Load() < 200 {
		t.Errorf("rpc counter = %d", cl.Stats().RPCs.Load())
	}
}

// TestClientUnknownTable: every data operation on a table the map does not
// know refreshes the map once and gives up with ErrNoSuchTable, rather
// than spending its whole redirect budget on refreshes.
func TestClientUnknownTable(t *testing.T) {
	_, cl := newTestCluster(t, 1)
	ctx := context.Background()
	k, v := [][]byte{[]byte("k")}, [][]byte{[]byte("v")}
	ops := []struct {
		name string
		op   func() error
	}{
		{"read", func() error { _, err := cl.Read(ctx, 99, k[0]); return err }},
		{"write", func() error { return cl.Write(ctx, 99, k[0], v[0]) }},
		{"delete", func() error { return cl.Delete(ctx, 99, k[0]) }},
		{"multiget", func() error { _, err := cl.MultiGet(ctx, 99, k); return err }},
		{"multiput", func() error { return cl.MultiPut(ctx, 99, k, v) }},
	}
	for _, o := range ops {
		before := cl.Stats().MapRefreshes.Load()
		if err := o.op(); err != client.ErrNoSuchTable {
			t.Errorf("%s unknown table: %v", o.name, err)
		}
		if n := cl.Stats().MapRefreshes.Load() - before; n > 2 {
			t.Errorf("%s unknown table: %d map refreshes", o.name, n)
		}
	}
}

// TestClientMultiPutReportsReplicationFailure: with the only backup gone a
// write cannot be made durable, and MultiPut must say so exactly as Write
// does instead of treating the batch's per-item OKs as success.
func TestClientMultiPutReportsReplicationFailure(t *testing.T) {
	c := cluster.New(cluster.Config{
		Servers:           2,
		Workers:           2,
		SegmentSize:       64 << 10,
		HashTableCapacity: 1 << 14,
		ReplicationFactor: 1,
		Quiet:             true,
	})
	t.Cleanup(c.Close)
	cl := c.MustClient()
	ctx := context.Background()
	table, err := cl.CreateTable(ctx, "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	writeErr := cl.Write(ctx, table, []byte("k"), []byte("v"))
	if writeErr == nil {
		t.Fatal("write acknowledged without its only backup")
	}
	err = cl.MultiPut(ctx, table, [][]byte{[]byte("k1"), []byte("k2")}, [][]byte{[]byte("v1"), []byte("v2")})
	if err == nil || err.Error() != writeErr.Error() {
		t.Fatalf("multiput = %v, write = %v", err, writeErr)
	}
}

// A read whose owner crashed waits for the recovery to move the range
// instead of spending every map refresh before the crash is even reported.
func TestClientReadWaitsOutOwnerRecovery(t *testing.T) {
	c := cluster.New(cluster.Config{
		Servers:           3,
		Workers:           2,
		SegmentSize:       64 << 10,
		HashTableCapacity: 1 << 14,
		ReplicationFactor: 2,
		Quiet:             true,
	})
	t.Cleanup(c.Close)
	cl, admin := c.MustClient(), c.MustClient()
	ctx := context.Background()
	table, err := cl.CreateTable(ctx, "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(ctx, table, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Crash(0)
	reported := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() {
		defer close(reported)
		if err := admin.ReportCrash(ctx, c.Server(0).ID()); err != nil {
			t.Error(err)
		}
	})
	v, err := cl.Read(ctx, table, []byte("k"))
	<-reported
	if err != nil || string(v) != "v" {
		t.Fatalf("read across the owner's recovery: %q %v", v, err)
	}
}

func TestClientStaleMapRecovery(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(context.Background(), table, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A second client with its own (soon stale) map.
	stale := c.MustClient()
	if _, err := stale.Read(context.Background(), table, []byte("k")); err != nil {
		t.Fatal(err)
	}
	// Move everything; the stale client must chase the redirect.
	g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	v, err := stale.Read(context.Background(), table, []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("stale client read: %q %v", v, err)
	}
	if stale.Stats().MapRefreshes.Load() < 2 {
		t.Errorf("stale client never refreshed (%d)", stale.Stats().MapRefreshes.Load())
	}
}

func TestClientMultiGetGroupsByServer(t *testing.T) {
	c, cl := newTestCluster(t, 4)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	var keys, values [][]byte
	for i := 0; i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%02d", i)))
		values = append(values, []byte(fmt.Sprintf("v%02d", i)))
	}
	if err := cl.MultiPut(context.Background(), table, keys, values); err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().RPCs.Load()
	got, err := cl.MultiGet(context.Background(), table, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if string(got[i]) != string(values[i]) {
			t.Fatalf("key %s mismatch", keys[i])
		}
	}
	rpcs := cl.Stats().RPCs.Load() - before
	// 64 keys over 4 servers must cost at most 4 RPCs (one per owner),
	// not 64 — the locality optimization of Figure 3.
	if rpcs > 4 {
		t.Fatalf("multiget used %d RPCs for 4 servers", rpcs)
	}
}

func TestClientIndexScanOrdering(t *testing.T) {
	c, cl := newTestCluster(t, 2)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cl.CreateIndex(context.Background(), table, []wire.ServerID{c.Server(0).ID()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, n := range names {
		pk := []byte(fmt.Sprintf("pk-%d", i))
		if err := cl.Write(context.Background(), table, pk, []byte(n)); err != nil {
			t.Fatal(err)
		}
		if err := cl.IndexInsert(context.Background(), idx, []byte(n), pk); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.IndexScan(context.Background(), table, idx, []byte("a"), []byte("z"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("scan returned %d", len(res))
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i, r := range res {
		if string(r.Value) != want[i] {
			t.Fatalf("scan order: got %q at %d, want %q", r.Value, i, want[i])
		}
	}
	// Limit honored.
	res, err = cl.IndexScan(context.Background(), table, idx, []byte("a"), []byte("z"), 2)
	if err != nil || len(res) != 2 {
		t.Fatalf("limited scan: %d %v", len(res), err)
	}
}

func TestClientMultiPutLengthMismatch(t *testing.T) {
	_, cl := newTestCluster(t, 1)
	if err := cl.MultiPut(context.Background(), 1, [][]byte{[]byte("a")}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestClientDeleteFlow(t *testing.T) {
	c, cl := newTestCluster(t, 1)
	table, err := cl.CreateTable(context.Background(), "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(context.Background(), table, []byte("nope")); err != client.ErrNoSuchKey {
		t.Fatalf("delete missing: %v", err)
	}
	if err := cl.Write(context.Background(), table, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(context.Background(), table, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(context.Background(), table, []byte("k")); err != client.ErrNoSuchKey {
		t.Fatalf("read deleted: %v", err)
	}
}
