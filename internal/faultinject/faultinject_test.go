package faultinject

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// stubEndpoint records every message forwarded by the fault layer.
type stubEndpoint struct {
	id      wire.ServerID
	inbound chan *wire.Message

	mu   sync.Mutex
	sent []*wire.Message
}

func newStub(id wire.ServerID) *stubEndpoint {
	return &stubEndpoint{id: id, inbound: make(chan *wire.Message, 64)}
}

func (s *stubEndpoint) LocalID() wire.ServerID { return s.id }
func (s *stubEndpoint) Inbound() <-chan *wire.Message {
	return s.inbound
}
func (s *stubEndpoint) Close() error { return nil }
func (s *stubEndpoint) Send(m *wire.Message) error {
	s.mu.Lock()
	s.sent = append(s.sent, m)
	s.mu.Unlock()
	return nil
}

func (s *stubEndpoint) sentIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, len(s.sent))
	for i, m := range s.sent {
		ids[i] = m.ID
	}
	return ids
}

func ping(id uint64, to wire.ServerID, response bool) *wire.Message {
	m := &wire.Message{ID: id, To: to, Op: wire.OpPing, IsResponse: response}
	if response {
		m.Body = &wire.PingResponse{Status: wire.StatusOK}
	} else {
		m.Body = &wire.PingRequest{}
	}
	return m
}

// runTrace pushes n messages through a fresh network with the given seed
// and returns (delivered ID multiset, drop/delay/dup/reorder counts).
func runTrace(seed uint64, n int, plan *Plan) ([]uint64, [4]int64) {
	net := NewNetwork(seed)
	stub := newStub(3)
	ep := net.Wrap(stub)
	net.SetPlan(plan)
	for i := 0; i < n; i++ {
		resp := i%3 == 0
		if err := ep.Send(ping(uint64(i+1), 7, resp)); err != nil {
			panic(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let delays and hold-flushes drain
	ids := stub.sentIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	st := net.Stats()
	return ids, [4]int64{st.Dropped.Load(), st.Delayed.Load(), st.Duplicated.Load(), st.Reordered.Load()}
}

func TestDeterministicReplayFromSeed(t *testing.T) {
	plan := &Plan{DropProb: 0.2, DelayProb: 0.2, DupProb: 0.3, ReorderProb: 0.2}
	ids1, c1 := runTrace(42, 400, plan)
	ids2, c2 := runTrace(42, 400, plan)
	if c1 != c2 {
		t.Fatalf("same seed, different fault counts: %v vs %v", c1, c2)
	}
	if len(ids1) != len(ids2) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("same seed, different delivered set at %d: %d vs %d", i, ids1[i], ids2[i])
		}
	}
	// A different seed must perturb the decisions (fixed seeds chosen so
	// this holds; the decision function is pure, so no flake).
	_, c3 := runTrace(43, 400, plan)
	if c1 == c3 {
		t.Fatalf("seeds 42 and 43 produced identical fault counts %v", c1)
	}
	if c1[0] == 0 || c1[1] == 0 || c1[2] == 0 || c1[3] == 0 {
		t.Fatalf("plan exercised no faults of some kind: %v", c1)
	}
}

func TestZeroPlanAndExemptOpsPassThrough(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	// No plan installed: everything passes.
	for i := 0; i < 50; i++ {
		_ = ep.Send(ping(uint64(i+1), 7, false))
	}
	if got := len(stub.sentIDs()); got != 50 {
		t.Fatalf("pass-through delivered %d/50", got)
	}
	// Exempt op under an otherwise lethal plan: still passes.
	net.SetPlan(&Plan{DropProb: 1, ExemptOps: []wire.Op{wire.OpPing}})
	for i := 0; i < 50; i++ {
		_ = ep.Send(ping(uint64(100+i), 7, false))
	}
	if got := len(stub.sentIDs()); got != 100 {
		t.Fatalf("exempt op was faulted: delivered %d/100", got)
	}
	if d := net.Stats().Dropped.Load(); d != 0 {
		t.Fatalf("exempt ops counted as dropped: %d", d)
	}
}

func TestDropAndOneWayBlock(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	net.SetPlan(&Plan{DropProb: 1})
	for i := 0; i < 20; i++ {
		if err := ep.Send(ping(uint64(i+1), 7, false)); err != nil {
			t.Fatalf("drop must look like a silent partition, got %v", err)
		}
	}
	if got := len(stub.sentIDs()); got != 0 {
		t.Fatalf("DropProb=1 delivered %d messages", got)
	}
	net.ClearPlan()
	// One-way block: 3->7 blocked, 3->8 open.
	net.Block(3, 7, true)
	_ = ep.Send(ping(100, 7, false))
	_ = ep.Send(ping(101, 8, false))
	ids := stub.sentIDs()
	if len(ids) != 1 || ids[0] != 101 {
		t.Fatalf("one-way block delivered %v", ids)
	}
	if b := net.Stats().Blocked.Load(); b != 1 {
		t.Fatalf("blocked counter = %d", b)
	}
	net.Block(3, 7, false)
	_ = ep.Send(ping(102, 7, false))
	if got := len(stub.sentIDs()); got != 2 {
		t.Fatalf("unblock did not restore delivery: %d", got)
	}
}

func TestBlockOpCutsOnlyThatOp(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	net.BlockOp(3, 7, wire.OpPull, true)
	_ = ep.Send(&wire.Message{ID: 1, To: 7, Op: wire.OpPull, Body: &wire.PullRequest{}})
	_ = ep.Send(ping(2, 7, false))
	if ids := stub.sentIDs(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("op block delivered %v, want only the ping", ids)
	}
	net.BlockOp(3, 7, wire.OpPull, false)
	_ = ep.Send(&wire.Message{ID: 3, To: 7, Op: wire.OpPull, Body: &wire.PullRequest{}})
	if got := len(stub.sentIDs()); got != 2 {
		t.Fatalf("unblock did not restore Pull delivery: %d", got)
	}
}

func TestDropNextDropsOnlyThatManyRequests(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	net.DropNext(wire.OpPull, 1)
	_ = ep.Send(&wire.Message{ID: 1, To: 7, Op: wire.OpPull, IsResponse: true, Body: &wire.PullResponse{}})
	_ = ep.Send(ping(2, 7, false))
	_ = ep.Send(&wire.Message{ID: 3, To: 7, Op: wire.OpPull, Body: &wire.PullRequest{}})
	_ = ep.Send(&wire.Message{ID: 4, To: 7, Op: wire.OpPull, Body: &wire.PullRequest{}})
	if ids := stub.sentIDs(); len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 4 {
		t.Fatalf("delivered %v, want all but the first Pull request", ids)
	}
	if got := net.Stats().Dropped.Load(); got != 1 {
		t.Fatalf("dropped %d, want 1", got)
	}
}

func TestDuplicationOnlyOnResponsesAndDeepCopies(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	net.SetPlan(&Plan{DupProb: 1})
	_ = ep.Send(ping(1, 7, false)) // request: never duplicated
	_ = ep.Send(ping(2, 7, true))  // response: duplicated
	ids := stub.sentIDs()
	if len(ids) != 3 {
		t.Fatalf("delivered %v, want request once + response twice", ids)
	}
	stub.mu.Lock()
	var orig, dup *wire.Message
	for _, m := range stub.sent {
		if m.ID == 2 {
			if orig == nil {
				orig = m
			} else {
				dup = m
			}
		}
	}
	stub.mu.Unlock()
	if orig == nil || dup == nil {
		t.Fatal("response not duplicated")
	}
	if orig == dup || orig.Body == dup.Body {
		t.Fatal("duplicate aliases the original message")
	}
	if net.Stats().Duplicated.Load() != 1 {
		t.Fatalf("duplicated counter = %d", net.Stats().Duplicated.Load())
	}
}

func TestReorderSwapsAdjacentMessages(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	// Reorder every message: msg1 is held, msg2 releases it behind itself.
	net.SetPlan(&Plan{ReorderProb: 1, HoldFlush: time.Second})
	_ = ep.Send(ping(1, 7, false))
	_ = ep.Send(ping(2, 7, false))
	ids := stub.sentIDs()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Fatalf("reorder delivered %v, want [2 1]", ids)
	}
	// A held message with no successor must flush on the timer.
	_ = ep.Send(ping(3, 9, false)) // different link: held
	deadline := time.Now().Add(2 * time.Second)
	net.SetPlan(&Plan{ReorderProb: 1, HoldFlush: 10 * time.Millisecond})
	_ = ep.Send(ping(4, 11, false)) // held on a third link, flushed by timer
	for {
		if len(stub.sentIDs()) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held message never flushed: %v", stub.sentIDs())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAtMessageTrigger(t *testing.T) {
	net := NewNetwork(1)
	stub := newStub(3)
	ep := net.Wrap(stub)
	fired := make(chan struct{})
	net.AtMessage(5, func() { close(fired) })
	for i := 0; i < 4; i++ {
		_ = ep.Send(ping(uint64(i+1), 7, false))
	}
	select {
	case <-fired:
		t.Fatal("trigger fired before its message count")
	default:
	}
	_ = ep.Send(ping(5, 7, false))
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("trigger never fired")
	}
	if net.MessageCount() != 5 {
		t.Fatalf("message count = %d", net.MessageCount())
	}
}

func TestWrappedFabricEndToEndRPC(t *testing.T) {
	// Faults must compose with the real fabric and RPC layer: a DropProb=1
	// window times out calls; clearing it restores service.
	fab := transport.NewFabric(transport.FabricConfig{})
	net := NewNetwork(7)
	srvEP := net.Wrap(fab.Attach(10))
	cliEP := net.Wrap(fab.Attach(20))

	srv := transport.NewNode(srvEP)
	srv.SetHandler(func(m *wire.Message) {
		if _, ok := m.Body.(*wire.PingRequest); ok {
			srv.Reply(m, &wire.PingResponse{Status: wire.StatusOK})
		}
	})
	srv.Start()
	defer srv.Close()

	cli := transport.NewNodeWithTimeout(cliEP, 100*time.Millisecond)
	cli.Start()
	defer cli.Close()

	if _, err := cli.Call(context.Background(), 10, wire.PriorityForeground, &wire.PingRequest{}); err != nil {
		t.Fatalf("clean network ping: %v", err)
	}
	net.SetPlan(&Plan{DropProb: 1})
	if _, err := cli.Call(context.Background(), 10, wire.PriorityForeground, &wire.PingRequest{}); err != transport.ErrTimeout {
		t.Fatalf("faulted ping: %v, want timeout", err)
	}
	net.ClearPlan()
	if _, err := cli.Call(context.Background(), 10, wire.PriorityForeground, &wire.PingRequest{}); err != nil {
		t.Fatalf("healed network ping: %v", err)
	}
}
