// Package faultinject is a deterministic, seed-driven fault-injection
// layer for transport endpoints. A Network wraps every endpoint of an
// in-process cluster; per-message decisions (drop, delay, duplicate,
// reorder, one-way block) are a pure function of (seed, link, per-link
// sequence number), so a failing run replays from its seed regardless of
// goroutine interleaving across links. Crash scripts hook into
// "message-count time" via AtMessage.
//
// The layer is inert until a Plan is installed with SetPlan: cluster
// bootstrap and final audits run over a clean network, and scenario tests
// bound the fault window explicitly.
//
// Safety contract for plans: delays (MaxDelay) and reorder holds
// (HoldFlush) must stay well below the RPC timeout. The store has no
// at-most-once layer, so a request held longer than the timeout can be
// retried by the caller and later delivered anyway — a "zombie"
// retransmission that genuinely clobbers newer writes. Keeping holds
// below the timeout means a delayed request always resolves before its
// caller acts on the timeout, which is the regime the scenario suite's
// invariants assume. Duplication, by the same argument, is applied only
// to responses (the RPC layer discards duplicate responses by ID).
package faultinject

import (
	"sync"
	"time"

	"rocksteady/internal/metrics"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// Plan describes the fault mix applied to every non-exempt message.
// Probabilities are in [0, 1] and evaluated independently per message;
// the zero Plan passes everything through untouched.
type Plan struct {
	// DropProb silently discards the message (the RPC layer times out).
	DropProb float64
	// DelayProb delays delivery by a deterministic duration in
	// (0, MaxDelay]. MaxDelay must be far below the RPC timeout (see the
	// package comment); it defaults to 2ms.
	DelayProb float64
	MaxDelay  time.Duration
	// DupProb delivers the message twice (deep-copied). Applied only to
	// responses; requests are never duplicated (no at-most-once layer).
	DupProb float64
	// ReorderProb holds the message until the next message on the same
	// link overtakes it (or HoldFlush elapses, default 2ms).
	ReorderProb float64
	HoldFlush   time.Duration
	// ExemptOps lists operations never faulted (requests and responses).
	// Scenarios exempt e.g. OpGetBackupSegments when the assertion under
	// test is the migration or its lineage recovery, not the recovery
	// fetch path itself.
	ExemptOps []wire.Op
}

// Clone returns a deep copy of the plan.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.ExemptOps = append([]wire.Op(nil), p.ExemptOps...)
	return &q
}

func (p *Plan) withDefaults() *Plan {
	q := p.Clone()
	if q.MaxDelay <= 0 {
		q.MaxDelay = 2 * time.Millisecond
	}
	if q.HoldFlush <= 0 {
		q.HoldFlush = 2 * time.Millisecond
	}
	return q
}

// Stats counts fault decisions; scenario tests report them so a replayed
// seed can be compared against the original run.
type Stats struct {
	Sent       *metrics.Counter
	Dropped    *metrics.Counter
	Delayed    *metrics.Counter
	Duplicated *metrics.Counter
	Reordered  *metrics.Counter
	Blocked    *metrics.Counter
}

type link struct{ from, to wire.ServerID }

// block keys a one-way partition: a link, for one op or (OpInvalid) all.
type block struct {
	link
	op wire.Op
}

// trigger fires fn once when the network-wide message count reaches at.
type trigger struct {
	at    uint64
	fn    func()
	fired bool
}

// Network owns the fault state shared by every wrapped endpoint.
type Network struct {
	seed uint64

	mu      sync.Mutex
	plan    *Plan // nil = pass-through
	exempt  map[wire.Op]bool
	seqs    map[link]uint64
	held    map[link]*wire.Message // reorder slots
	blocked map[block]bool         // one-way partitions
	dropOps map[wire.Op]int        // requests of an op still to drop (DropNext)
	trigs   []*trigger
	total   uint64 // messages offered to wrapped endpoints

	stats Stats
}

// NewNetwork creates an inert fault network with the given seed.
func NewNetwork(seed uint64) *Network {
	return &Network{
		seed:    seed,
		seqs:    make(map[link]uint64),
		held:    make(map[link]*wire.Message),
		blocked: make(map[block]bool),
		dropOps: make(map[wire.Op]int),
		stats: Stats{
			Sent:       metrics.NewCounter("faults.sent"),
			Dropped:    metrics.NewCounter("faults.dropped"),
			Delayed:    metrics.NewCounter("faults.delayed"),
			Duplicated: metrics.NewCounter("faults.duplicated"),
			Reordered:  metrics.NewCounter("faults.reordered"),
			Blocked:    metrics.NewCounter("faults.blocked"),
		},
	}
}

// Seed returns the network's seed (logged by tests for replay).
func (n *Network) Seed() uint64 { return n.seed }

// Stats returns the network's fault counters.
func (n *Network) Stats() Stats { return n.stats }

// SetPlan installs (or, with nil, removes) the active fault plan. A held
// reorder slot is never stranded across plan changes: its flush timer
// (armed at hold time) delivers it even if no later message overtakes it.
func (n *Network) SetPlan(p *Plan) {
	n.mu.Lock()
	if p == nil {
		n.plan = nil
		n.exempt = nil
	} else {
		n.plan = p.withDefaults()
		n.exempt = make(map[wire.Op]bool, len(n.plan.ExemptOps))
		for _, op := range n.plan.ExemptOps {
			n.exempt[op] = true
		}
	}
	n.mu.Unlock()
}

// ClearPlan removes the active plan (network returns to pass-through;
// one-way blocks installed with Block remain).
func (n *Network) ClearPlan() { n.SetPlan(nil) }

// Block installs (or removes) a one-way partition: messages from -> to
// are silently discarded. Bidirectional partitions are two Block calls.
func (n *Network) Block(from, to wire.ServerID, blocked bool) {
	n.BlockOp(from, to, wire.OpInvalid, blocked)
}

// BlockOp is Block for one operation: only op's requests and responses
// from -> to are discarded (wire.OpInvalid blocks every op). A test uses
// it to cut one path — say, Pulls — before its first message is sent.
func (n *Network) BlockOp(from, to wire.ServerID, op wire.Op, blocked bool) {
	n.mu.Lock()
	if blocked {
		n.blocked[block{link{from, to}, op}] = true
	} else {
		delete(n.blocked, block{link{from, to}, op})
	}
	n.mu.Unlock()
}

// DropNext discards the next count requests of op, on any link, whatever
// the plan. A test uses it to lose one particular RPC — say, one recovery
// install — and watch the caller's retry cover it.
func (n *Network) DropNext(op wire.Op, count int) {
	n.mu.Lock()
	n.dropOps[op] += count
	n.mu.Unlock()
}

// AtMessage registers fn to run (once, on its own goroutine) when the
// network-wide message count reaches at. This is the crash script hook:
// "crash the source after ~N messages" is deterministic in message-count
// time rather than wall-clock time.
func (n *Network) AtMessage(at uint64, fn func()) {
	n.mu.Lock()
	n.trigs = append(n.trigs, &trigger{at: at, fn: fn})
	n.mu.Unlock()
}

// MessageCount returns how many messages wrapped endpoints have offered.
func (n *Network) MessageCount() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.total
}

// Wrap interposes the network between ep and its callers. The returned
// endpoint preserves the Copying contract of the underlying endpoint.
func (n *Network) Wrap(ep transport.Endpoint) transport.Endpoint {
	return &Endpoint{net: n, inner: ep}
}

// splitmix64 is the decision PRNG: a single pass over a 64-bit state.
// Feeding it (seed, link hash, sequence) yields an independent stream per
// (link, message) pair, so decisions do not depend on cross-link
// goroutine interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decisionStream derives independent uniform samples for one message.
type decisionStream struct{ state uint64 }

func (n *Network) streamFor(l link, seq uint64) decisionStream {
	h := splitmix64(n.seed ^ splitmix64(uint64(l.from)<<32|uint64(l.to)))
	return decisionStream{state: splitmix64(h ^ splitmix64(seq))}
}

// next returns a uniform float64 in [0, 1).
func (d *decisionStream) next() float64 {
	d.state = splitmix64(d.state)
	return float64(d.state>>11) / (1 << 53)
}

// verdict is the precomputed fate of one message.
type verdict struct {
	drop      bool
	delay     time.Duration
	duplicate bool
	reorder   bool
	holdFlush time.Duration
	release   *wire.Message // previously held message to send after this one
}

// decide computes a message's fate and advances shared state. It holds
// n.mu only for the decision — the caller performs all sends after the
// lock is released (the lockhold invariant: no blocking transport sends
// under a mutex).
func (n *Network) decide(m *wire.Message) verdict {
	n.mu.Lock()
	n.total++
	var fire []func()
	for _, tr := range n.trigs {
		if !tr.fired && n.total >= tr.at {
			tr.fired = true
			fire = append(fire, tr.fn)
		}
	}
	l := link{m.From, m.To}
	if n.blocked[block{l, wire.OpInvalid}] || n.blocked[block{l, m.Op}] {
		n.mu.Unlock()
		for _, fn := range fire {
			go fn()
		}
		n.stats.Blocked.Inc()
		return verdict{drop: true}
	}
	if !m.IsResponse && n.dropOps[m.Op] > 0 {
		n.dropOps[m.Op]--
		n.mu.Unlock()
		for _, fn := range fire {
			go fn()
		}
		n.stats.Dropped.Inc()
		return verdict{drop: true}
	}
	p := n.plan
	if p == nil || n.exempt[m.Op] {
		// Pass-through, but still release any held message behind this one
		// so plan changes cannot strand a reorder slot.
		rel := n.held[l]
		delete(n.held, l)
		n.mu.Unlock()
		for _, fn := range fire {
			go fn()
		}
		return verdict{release: rel}
	}
	seq := n.seqs[l]
	n.seqs[l] = seq + 1
	ds := n.streamFor(l, seq)
	v := verdict{release: n.held[l], holdFlush: p.HoldFlush}
	delete(n.held, l)
	switch {
	case ds.next() < p.DropProb:
		v.drop = true
		n.stats.Dropped.Inc()
	case ds.next() < p.ReorderProb && v.release == nil:
		// Hold this message; the next one on the link overtakes it.
		n.held[l] = m
		v.reorder = true
		n.stats.Reordered.Inc()
	default:
		if ds.next() < p.DelayProb {
			// Deterministic delay in (0, MaxDelay].
			v.delay = time.Duration(ds.next()*float64(p.MaxDelay)) + time.Nanosecond
			n.stats.Delayed.Inc()
		}
		if m.IsResponse && ds.next() < p.DupProb {
			v.duplicate = true
			n.stats.Duplicated.Inc()
		}
	}
	n.mu.Unlock()
	for _, fn := range fire {
		go fn()
	}
	return v
}

// takeHeld removes and returns the held message for a link, if any (the
// reorder flush timer path).
func (n *Network) takeHeld(l link, m *wire.Message) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.held[l] == m {
		delete(n.held, l)
		return true
	}
	return false
}

// Endpoint is a fault-wrapped transport endpoint.
type Endpoint struct {
	net   *Network
	inner transport.Endpoint
}

var _ transport.Endpoint = (*Endpoint)(nil)
var _ transport.Copying = (*Endpoint)(nil)

// LocalID returns the wrapped endpoint's address.
func (e *Endpoint) LocalID() wire.ServerID { return e.inner.LocalID() }

// Inbound returns the wrapped endpoint's inbound stream.
func (e *Endpoint) Inbound() <-chan *wire.Message { return e.inner.Inbound() }

// Close closes the wrapped endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// SendCopies preserves the payload-ownership contract of the inner
// endpoint (see transport.Copying).
func (e *Endpoint) SendCopies() bool {
	if c, ok := e.inner.(transport.Copying); ok {
		return c.SendCopies()
	}
	return false
}

// Send applies the network's fault verdict to m, then forwards to the
// inner endpoint. Drops and blocks return nil — exactly the fabric's
// partition semantics, so the RPC layer times out.
func (e *Endpoint) Send(m *wire.Message) error {
	// The fabric stamps m.From during Send; stamp it here first so link
	// identification (and partitioned-fabric parity) is stable. The link is
	// captured before decide(): once the message enters the reorder-hold
	// map a concurrent sender on the same link may release (and forward) it,
	// so m must not be touched again on this path.
	m.From = e.inner.LocalID()
	l := link{m.From, m.To}
	e.net.stats.Sent.Inc()
	v := e.net.decide(m)

	// A held predecessor is released behind the current message, realizing
	// the reorder. Send errors on the released message are swallowed just
	// as the fabric swallows partition drops.
	defer func() {
		if v.release != nil {
			_ = e.inner.Send(v.release)
		}
	}()

	if v.drop {
		return nil
	}
	if v.reorder {
		// Flush guard: if nothing overtakes the held message in time,
		// deliver it anyway so it is never stranded.
		held := m
		time.AfterFunc(v.holdFlush, func() {
			if e.net.takeHeld(l, held) {
				_ = e.inner.Send(held)
			}
		})
		return nil
	}
	if v.delay > 0 {
		delayed := m
		time.AfterFunc(v.delay, func() { _ = e.inner.Send(delayed) })
		return nil
	}
	if v.duplicate {
		if dup := deepCopy(m); dup != nil {
			if err := e.inner.Send(m); err != nil {
				return err
			}
			return e.inner.Send(dup)
		}
	}
	return e.inner.Send(m)
}

// deepCopy clones a message via a marshal round-trip so the duplicate
// shares no payload memory with the original (the zero-copy fabric hands
// payload pointers to the receiver, which then owns them).
func deepCopy(m *wire.Message) *wire.Message {
	buf := wire.AppendMessage(nil, m)
	dup, err := wire.UnmarshalMessage(buf)
	if err != nil {
		return nil
	}
	return dup
}
