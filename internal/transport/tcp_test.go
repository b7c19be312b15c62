package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/wire"
)

// tcpPair builds two TCP endpoints wired to each other over loopback.
func tcpPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(TCPConfig{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(TCPConfig{ID: 2, ListenAddr: "127.0.0.1:0",
		Peers: map[wire.ServerID]string{1: a.Addr()}})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.cfg.Peers = map[wire.ServerID]string{2: b.Addr()}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	msg := &wire.Message{ID: 7, To: 2, Op: wire.OpRead,
		Body: &wire.ReadRequest{Table: 3, Key: []byte("key")}}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Inbound():
		if got.ID != 7 || got.From != 1 {
			t.Fatalf("got %+v", got)
		}
		req := got.Body.(*wire.ReadRequest)
		if req.Table != 3 || string(req.Key) != "key" {
			t.Fatalf("body %+v", req)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestTCPRPCThroughNodes(t *testing.T) {
	a, b := tcpPair(t)
	server := NewNode(b)
	server.SetHandler(func(m *wire.Message) {
		server.Reply(m, &wire.PingResponse{Status: wire.StatusOK})
	})
	server.Start()
	client := NewNode(a)
	client.Start()
	defer client.Close()
	defer server.Close()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				reply, err := client.Call(context.Background(), 2, wire.PriorityForeground, &wire.PingRequest{})
				if err != nil {
					t.Error(err)
					return
				}
				if reply.(*wire.PingResponse).Status != wire.StatusOK {
					t.Error("bad status")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPOrderPreserved(t *testing.T) {
	a, b := tcpPair(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(&wire.Message{ID: uint64(i), To: 2, Op: wire.OpPing, Body: &wire.PingRequest{}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := <-b.Inbound()
		if m.ID != uint64(i) {
			t.Fatalf("out of order: %d vs %d", m.ID, i)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	err := a.Send(&wire.Message{To: 99, Op: wire.OpPing, Body: &wire.PingRequest{}})
	if err != ErrUnreachable {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPPeerDown(t *testing.T) {
	a, err := NewTCP(TCPConfig{ID: 1, ListenAddr: "127.0.0.1:0",
		Peers: map[wire.ServerID]string{2: "127.0.0.1:1"}}) // nothing listens
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(&wire.Message{To: 2, Op: wire.OpPing, Body: &wire.PingRequest{}}); err != ErrUnreachable {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&wire.Message{To: 2, Body: &wire.PingRequest{}}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestTCPLargeFrames(t *testing.T) {
	a, b := tcpPair(t)
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i)
	}
	msg := &wire.Message{ID: 1, To: 2, Op: wire.OpReplicateBatch,
		Body: &wire.ReplicateBatchRequest{Master: 1, Chunks: []wire.ReplicateChunk{{SegmentID: 9, Data: data}}}}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got := <-b.Inbound()
	req := got.Body.(*wire.ReplicateBatchRequest).Chunks[0]
	if len(req.Data) != len(data) {
		t.Fatalf("size %d", len(req.Data))
	}
	for i := 0; i < len(data); i += 100_000 {
		if req.Data[i] != data[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
	_ = fmt.Sprint() // keep fmt imported for future debugging
}

// TestTCPCoalescedConcurrentSenders hammers one peer connection from many
// goroutines: the write-coalescing path must keep every frame intact and
// preserve per-sender order while batching concurrent frames into shared
// writev calls.
func TestTCPCoalescedConcurrentSenders(t *testing.T) {
	a, b := tcpPair(t)
	const senders = 8
	const perSender = 200

	received := make(chan *wire.Message, senders*perSender)
	go func() {
		for m := range b.Inbound() {
			received <- m
		}
		close(received)
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				// ID encodes (sender, sequence); the key repeats it so payload
				// integrity is checked too.
				id := uint64(s)<<32 | uint64(i)
				key := []byte(fmt.Sprintf("s%02d-i%06d", s, i))
				if err := a.Send(&wire.Message{ID: id, To: 2, Op: wire.OpRead,
					Body: &wire.ReadRequest{Table: wire.TableID(s), Key: key}}); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	next := make([]uint64, senders)
	for n := 0; n < senders*perSender; n++ {
		var m *wire.Message
		select {
		case m = <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d frames arrived", n, senders*perSender)
		}
		s, i := int(m.ID>>32), m.ID&0xffffffff
		if s < 0 || s >= senders {
			t.Fatalf("corrupt sender ID %d", m.ID)
		}
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived, want %d (reordered)", s, i, next[s])
		}
		next[s]++
		req, ok := m.Body.(*wire.ReadRequest)
		if !ok {
			t.Fatalf("corrupt body %T", m.Body)
		}
		if want := fmt.Sprintf("s%02d-i%06d", s, i); string(req.Key) != want || req.Table != wire.TableID(s) {
			t.Fatalf("corrupt payload: key %q table %d, want %q table %d", req.Key, req.Table, want, s)
		}
	}
}

// TestTCPSendAllocs bounds steady-state sender+receiver allocations per
// message: the frame buffer, write queue, and writev vector are all pooled,
// leaving only the decoded message and body.
func TestTCPSendAllocs(t *testing.T) {
	a, b := tcpPair(t)
	drained := make(chan struct{})
	arrived := make(chan struct{})
	count := 0
	go func() {
		defer close(drained)
		for range b.Inbound() {
			if count++; count == 1 {
				close(arrived)
			}
		}
	}()

	msg := &wire.Message{To: 2, Op: wire.OpPing, Body: &wire.PingRequest{}}
	send := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm the connection and pools
	allocs := testing.AllocsPerRun(200, send)
	// Sender side is allocation-free; the receiver's decode costs the
	// message and body (and scheduling jitter can land a stray alloc inside
	// the measured window), so allow a small constant.
	if allocs > 4 {
		t.Fatalf("TCP send allocates %.1f objects/op, want <= 4", allocs)
	}
	// Close tears connections down without draining them, so wait for the
	// frames to reach the receiver before closing.
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver saw no frames")
	}
	a.Close()
	b.Close()
	<-drained
}
