//go:build !race

package client_test

import (
	"context"
	"testing"
)

// TestClientHotPathAllocs pins the allocations of a single-key Read and
// Write on an idle one-server cluster: the routing loop shared by every
// single-key operation must cost nothing on top of the request, the RPC
// and the reply. Gated off race builds, whose runtime adds bookkeeping
// allocations.
func TestClientHotPathAllocs(t *testing.T) {
	c, cl := newTestCluster(t, 1)
	ctx := context.Background()
	table, err := cl.CreateTable(ctx, "t", c.ServerIDs()...)
	if err != nil {
		t.Fatal(err)
	}
	key, value := []byte("key"), []byte("value")
	if err := cl.Write(ctx, table, key, value); err != nil {
		t.Fatal(err)
	}
	read := testing.AllocsPerRun(2000, func() {
		if _, err := cl.Read(ctx, table, key); err != nil {
			t.Fatal(err)
		}
	})
	write := testing.AllocsPerRun(2000, func() {
		if err := cl.Write(ctx, table, key, value); err != nil {
			t.Fatal(err)
		}
	})
	if read > 11 {
		t.Errorf("Client.Read: %.1f allocs/op, budget 11", read)
	}
	if write > 12 {
		t.Errorf("Client.Write: %.1f allocs/op, budget 12", write)
	}
	t.Logf("Client.Read %.1f allocs/op, Client.Write %.1f allocs/op", read, write)
}
