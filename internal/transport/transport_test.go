package transport

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/wire"
)

func TestFabricDelivery(t *testing.T) {
	f := NewFabric(FabricConfig{})
	a := f.Attach(10)
	b := f.Attach(11)
	msg := &wire.Message{ID: 1, To: 11, Op: wire.OpPing, Body: &wire.PingRequest{}}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := <-b.Inbound()
	if got.ID != 1 || got.From != 10 || got.Op != wire.OpPing {
		t.Fatalf("got %+v", got)
	}
	if n, _ := f.Stats(); n != 1 {
		t.Fatalf("delivered = %d", n)
	}
}

func TestFabricUnreachable(t *testing.T) {
	f := NewFabric(FabricConfig{})
	a := f.Attach(1)
	if err := a.Send(&wire.Message{To: 99, Body: &wire.PingRequest{}}); err != ErrUnreachable {
		t.Fatalf("err = %v", err)
	}
}

func TestFabricKill(t *testing.T) {
	f := NewFabric(FabricConfig{})
	a := f.Attach(1)
	b := f.Attach(2)
	f.Kill(2)
	if err := a.Send(&wire.Message{To: 2, Body: &wire.PingRequest{}}); err != ErrUnreachable {
		t.Fatalf("send to killed port: %v", err)
	}
	// The killed port's inbound must be closed.
	if _, ok := <-b.Inbound(); ok {
		t.Fatal("killed port inbound still open")
	}
	if err := b.Send(&wire.Message{To: 1, Body: &wire.PingRequest{}}); err != ErrClosed {
		t.Fatalf("send from killed port: %v", err)
	}
}

func TestFabricPartitionDropsSilently(t *testing.T) {
	f := NewFabric(FabricConfig{})
	a := f.Attach(1)
	b := f.Attach(2)
	f.Partition(1, 2, true)
	if err := a.Send(&wire.Message{To: 2, Body: &wire.PingRequest{}}); err != nil {
		t.Fatalf("partitioned send should drop silently, got %v", err)
	}
	select {
	case m := <-b.Inbound():
		t.Fatalf("message crossed partition: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	f.Partition(1, 2, false)
	if err := a.Send(&wire.Message{To: 2, Body: &wire.PingRequest{}}); err != nil {
		t.Fatal(err)
	}
	<-b.Inbound()
}

func TestFabricOrderPreservedPerDestination(t *testing.T) {
	f := NewFabric(FabricConfig{})
	a := f.Attach(1)
	b := f.Attach(2)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Message{ID: uint64(i), To: 2, Body: &wire.PingRequest{}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := <-b.Inbound()
		if m.ID != uint64(i) {
			t.Fatalf("out of order: got %d want %d", m.ID, i)
		}
	}
}

func TestFabricBandwidthPacing(t *testing.T) {
	// 10 MB at 100 MB/s must take ~100 ms.
	f := NewFabric(FabricConfig{BandwidthBytesPerSec: 100 << 20})
	a := f.Attach(1)
	b := f.Attach(2)
	const msgSize = 64 << 10
	const count = 160 // ~10 MB
	start := time.Now()
	done := make(chan struct{})
	go func() {
		for i := 0; i < count; i++ {
			<-b.Inbound()
		}
		close(done)
	}()
	payload := &wire.ReplicateBatchRequest{Chunks: []wire.ReplicateChunk{{Data: make([]byte, msgSize)}}}
	for i := 0; i < count; i++ {
		if err := a.Send(&wire.Message{ID: uint64(i), To: 2, Op: wire.OpReplicateBatch, Body: payload}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond {
		t.Errorf("10 MB at 100 MB/s took only %v; pacing not applied", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("pacing too slow: %v", elapsed)
	}
}

// pacers counts the goroutines running a port's egress pacer.
func pacers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Port).egressLoop(")
}

// TestFabricCloseStopsPacing: closing a paced port ends its egress pacer
// and releases a sender blocked on its full egress ring.
func TestFabricCloseStopsPacing(t *testing.T) {
	before := pacers()
	f := NewFabric(FabricConfig{BandwidthBytesPerSec: 10 << 20, QueueLen: 1})
	ports := []*Port{f.Attach(1), f.Attach(2), f.Attach(3)}
	// 1 MB at 10 MB/s holds the pacer ~100 ms on the first message; the
	// second fills the one-slot ring, so a third Send blocks.
	big := &wire.ReplicateBatchRequest{Chunks: []wire.ReplicateChunk{{Data: make([]byte, 1<<20)}}}
	msg := func(id uint64) *wire.Message {
		return &wire.Message{ID: id, To: 2, Op: wire.OpReplicateBatch, Body: big}
	}
	for i := uint64(0); i < 2; i++ {
		if err := ports[0].Send(msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- ports[0].Send(msg(2)) }()
	for _, p := range ports {
		_ = p.Close()
	}
	select {
	case err := <-blocked:
		if err != ErrClosed {
			t.Fatalf("Send on a closed port's full ring returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send still blocked on a closed port's egress ring")
	}
	deadline := time.Now().Add(2 * time.Second)
	for pacers() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d egress pacers outlive Close", pacers()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFabricReattachReplacesPort(t *testing.T) {
	f := NewFabric(FabricConfig{})
	old := f.Attach(5)
	fresh := f.Attach(5)
	if _, ok := <-old.Inbound(); ok {
		t.Fatal("old port not closed on reattach")
	}
	a := f.Attach(6)
	if err := a.Send(&wire.Message{To: 5, Body: &wire.PingRequest{}}); err != nil {
		t.Fatal(err)
	}
	<-fresh.Inbound()
}

// ---------------------------------------------------------------------------
// Node (RPC layer)
// ---------------------------------------------------------------------------

func startEchoNode(t *testing.T, f *Fabric, id wire.ServerID) *Node {
	t.Helper()
	n := NewNode(f.Attach(id))
	n.SetHandler(func(m *wire.Message) {
		switch m.Op {
		case wire.OpPing:
			n.Reply(m, &wire.PingResponse{Status: wire.StatusOK})
		case wire.OpRead:
			req := m.Body.(*wire.ReadRequest)
			n.Reply(m, &wire.ReadResponse{Status: wire.StatusOK, Value: append([]byte("echo:"), req.Key...)})
		}
	})
	n.Start()
	t.Cleanup(n.Close)
	return n
}

func TestNodeCallRoundTrip(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNode(f.Attach(1))
	client.Start()
	defer client.Close()
	startEchoNode(t, f, 2)

	reply, err := client.Call(context.Background(), 2, wire.PriorityForeground, &wire.ReadRequest{Table: 1, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	resp := reply.(*wire.ReadResponse)
	if string(resp.Value) != "echo:k" {
		t.Fatalf("value %q", resp.Value)
	}
}

func TestNodeConcurrentCalls(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNode(f.Attach(1))
	client.Start()
	defer client.Close()
	startEchoNode(t, f, 2)

	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := client.Call(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if client.DispatchedMessages() < 1000 {
		t.Errorf("dispatched = %d", client.DispatchedMessages())
	}
}

func TestNodeCallTimeout(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNodeWithTimeout(f.Attach(1), 30*time.Millisecond)
	client.Start()
	defer client.Close()
	// Peer attached but never answers.
	silent := NewNode(f.Attach(2))
	silent.SetHandler(func(m *wire.Message) {})
	silent.Start()
	defer silent.Close()

	start := time.Now()
	_, err := client.Call(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{})
	if err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout too slow")
	}
}

func TestNodeCallToDeadServerFailsFast(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNode(f.Attach(1))
	client.Start()
	defer client.Close()
	_, err := client.Call(context.Background(), 99, wire.PriorityForeground, &wire.PingRequest{})
	if err != ErrUnreachable {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeCloseFailsPendingCalls(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNode(f.Attach(1))
	client.Start()
	silent := NewNode(f.Attach(2))
	silent.SetHandler(func(m *wire.Message) {})
	silent.Start()
	defer silent.Close()

	call := client.Go(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{})
	client.Close()
	_, err := call.Wait()
	if err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeGoAsyncPipelining(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNode(f.Attach(1))
	client.Start()
	defer client.Close()
	startEchoNode(t, f, 2)

	calls := make([]*Call, 32)
	for i := range calls {
		calls[i] = client.Go(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{})
	}
	for i, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestNodeDispatchBusyAccounting(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNode(f.Attach(1))
	client.Start()
	defer client.Close()
	server := startEchoNode(t, f, 2)
	for i := 0; i < 100; i++ {
		if _, err := client.Call(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if server.DispatchBusyNanos() <= 0 {
		t.Error("server dispatch busy time not recorded")
	}
	if server.DispatchedMessages() != 100 {
		t.Errorf("server dispatched %d", server.DispatchedMessages())
	}
}

func TestNodePeerCrashMidCall(t *testing.T) {
	f := NewFabric(FabricConfig{})
	client := NewNodeWithTimeout(f.Attach(1), 50*time.Millisecond)
	client.Start()
	defer client.Close()

	slow := NewNode(f.Attach(2))
	slow.SetHandler(func(m *wire.Message) { /* never replies */ })
	slow.Start()

	call := client.Go(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{})
	f.Kill(2)
	if _, err := call.Wait(); err == nil {
		t.Fatal("call to crashed peer succeeded")
	}
}
