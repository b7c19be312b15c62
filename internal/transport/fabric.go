package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/wire"
)

// FabricConfig models the cluster network.
type FabricConfig struct {
	// BandwidthBytesPerSec caps each port's egress (NIC serialization);
	// 0 means unlimited. The paper's testbed: 40 Gbps = 5e9 B/s.
	BandwidthBytesPerSec float64
	// Latency is one-way propagation delay added to every message; 0 (the
	// default) relies on the in-process channel hop (~1 µs), which already
	// matches kernel-bypass RPC scale.
	Latency time.Duration
	// QueueLen is the inbound queue depth per port (NIC RX ring).
	QueueLen int
}

// Fabric is the in-process datacenter network: every attached Port can
// reach every other. Payload pointers are handed across channels without
// marshalling, modelling the zero-copy scatter/gather DMA path of §3.2;
// WireSize drives the bandwidth model instead of actual bytes.
type Fabric struct {
	cfg FabricConfig

	mu    sync.RWMutex
	ports map[wire.ServerID]*Port

	// delivered and deliveredBytes count fabric-wide traffic.
	delivered      atomic.Int64
	deliveredBytes atomic.Int64
}

// NewFabric creates an empty network.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	return &Fabric{cfg: cfg, ports: make(map[wire.ServerID]*Port)}
}

// Stats returns total messages and modelled bytes delivered.
func (f *Fabric) Stats() (messages, bytes int64) {
	return f.delivered.Load(), f.deliveredBytes.Load()
}

// Attach creates a port with the given address. Attaching an existing
// address replaces the old port (which is closed), supporting restart
// after a crash.
func (f *Fabric) Attach(id wire.ServerID) *Port {
	p := &Port{
		id:      id,
		fab:     f,
		inbound: make(chan *wire.Message, f.cfg.QueueLen),
		done:    make(chan struct{}),
	}
	if f.cfg.BandwidthBytesPerSec > 0 || f.cfg.Latency > 0 {
		p.egress = make(chan *wire.Message, f.cfg.QueueLen)
		go p.egressLoop()
	}
	f.mu.Lock()
	old := f.ports[id]
	f.ports[id] = p
	f.mu.Unlock()
	if old != nil {
		old.shutdown()
	}
	return p
}

// Lookup returns the port for an address.
func (f *Fabric) Lookup(id wire.ServerID) (*Port, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.ports[id]
	return p, ok
}

// Kill marks a port dead and closes it: subsequent sends to or from it
// fail, and its inbound stream ends. Models a server crash.
func (f *Fabric) Kill(id wire.ServerID) {
	f.mu.Lock()
	p := f.ports[id]
	delete(f.ports, id)
	f.mu.Unlock()
	if p != nil {
		p.shutdown()
	}
}

// Partition installs (or removes) a bidirectional partition between two
// addresses; messages between them are dropped silently, producing RPC
// timeouts. Used for failure-injection tests.
func (f *Fabric) Partition(a, b wire.ServerID, partitioned bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, pair := range [][2]wire.ServerID{{a, b}, {b, a}} {
		if p, ok := f.ports[pair[0]]; ok {
			p.blocked.Lock()
			if p.blockedTo == nil {
				p.blockedTo = map[wire.ServerID]bool{}
			}
			if partitioned {
				p.blockedTo[pair[1]] = true
			} else {
				delete(p.blockedTo, pair[1])
			}
			p.blocked.Unlock()
		}
	}
}

// Port is one NIC on the fabric.
type Port struct {
	id      wire.ServerID
	fab     *Fabric
	inbound chan *wire.Message
	egress  chan *wire.Message // nil on the fast path (no bandwidth model)

	// done closes before inbound does; in-flight deliveries select on it
	// so shutdown never closes inbound under a blocked sender. inMu
	// brackets every inbound send (read side) against the close (write
	// side).
	done   chan struct{}
	inMu   sync.RWMutex
	closed atomic.Bool
	once   sync.Once

	// nic egress virtual clock for the bandwidth model.
	nicMu    sync.Mutex
	nicFree  time.Time
	sentMsgs atomic.Int64

	blocked   sync.Mutex
	blockedTo map[wire.ServerID]bool
}

var _ Endpoint = (*Port)(nil)

// LocalID returns the port's address.
func (p *Port) LocalID() wire.ServerID { return p.id }

// Inbound returns the received-message stream.
func (p *Port) Inbound() <-chan *wire.Message { return p.inbound }

// Close detaches the port from the fabric.
func (p *Port) Close() error {
	p.fab.mu.Lock()
	if p.fab.ports[p.id] == p {
		delete(p.fab.ports, p.id)
	}
	p.fab.mu.Unlock()
	p.shutdown()
	return nil
}

func (p *Port) shutdown() {
	p.once.Do(func() {
		p.closed.Store(true)
		// Unblock every delivery parked on a full inbound queue, then wait
		// for in-flight deliveries to drain before ending the stream.
		close(p.done)
		p.inMu.Lock()
		close(p.inbound)
		p.inMu.Unlock()
	})
}

// SentMessages returns how many messages this port transmitted.
func (p *Port) SentMessages() int64 { return p.sentMsgs.Load() }

// SendCopies implements Copying: the fabric hands payload pointers to the
// receiver (modelling zero-copy DMA), so the receiver owns them after Send.
func (p *Port) SendCopies() bool { return false }

// Send transmits m to m.To. With no bandwidth model configured this is a
// direct channel handoff; otherwise the message passes through the egress
// pacer first.
func (p *Port) Send(m *wire.Message) error {
	if p.closed.Load() {
		return ErrClosed
	}
	p.blocked.Lock()
	drop := p.blockedTo[m.To]
	p.blocked.Unlock()
	if drop {
		return nil // silently dropped: the RPC layer times out
	}
	m.From = p.id
	p.sentMsgs.Add(1)
	if p.egress == nil {
		return p.deliver(m)
	}
	// Check destination liveness up front so senders get a fast
	// unreachable error instead of a lost message and an RPC timeout; the
	// egress pacer re-checks at delivery time.
	p.fab.mu.RLock()
	dst, ok := p.fab.ports[m.To]
	p.fab.mu.RUnlock()
	if !ok || dst.closed.Load() {
		return ErrUnreachable
	}
	// A full egress ring applies backpressure like a real NIC queue;
	// closing the port releases a sender blocked on it.
	select {
	case p.egress <- m:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

// egressLoop paces transmission to the configured bandwidth using a
// virtual clock: short debts accumulate and are paid with one sleep once
// they exceed the OS timer granularity, so pacing is accurate in aggregate
// even for microsecond-scale messages. It exits when the port closes;
// messages still queued then are lost, as on a crashed NIC.
func (p *Port) egressLoop() {
	bw := p.fab.cfg.BandwidthBytesPerSec
	lat := p.fab.cfg.Latency
	for {
		var m *wire.Message
		select {
		case m = <-p.egress:
		case <-p.done:
			return
		}
		if bw > 0 {
			serialize := time.Duration(float64(m.WireSize()) / bw * float64(time.Second))
			p.nicMu.Lock()
			now := time.Now()
			if p.nicFree.Before(now) {
				p.nicFree = now
			}
			p.nicFree = p.nicFree.Add(serialize)
			debt := p.nicFree.Sub(now)
			p.nicMu.Unlock()
			if debt > 50*time.Microsecond {
				//lint:ignore nopoll deliberate: models NIC serialization delay, not a poll
				time.Sleep(debt)
			}
		}
		if lat > 0 {
			//lint:ignore nopoll deliberate: models one-way network latency, not a poll
			time.Sleep(lat)
		}
		_ = p.deliver(m)
	}
}

func (p *Port) deliver(m *wire.Message) error {
	p.fab.mu.RLock()
	dst, ok := p.fab.ports[m.To]
	p.fab.mu.RUnlock()
	if !ok || dst.closed.Load() {
		return ErrUnreachable
	}
	// Account before handoff: after the channel send the receiver owns the
	// message and may mutate its payload.
	size := int64(m.WireSize())
	dst.inMu.RLock()
	if dst.closed.Load() {
		dst.inMu.RUnlock()
		return ErrUnreachable
	}
	// inMu deliberately read-brackets this send against shutdown's
	// close(inbound): the send cannot block past close(done), and the only
	// write-side holder is the one-shot shutdown drain.
	select {
	//lint:ignore lockhold read-lock send races only the one-shot close; done unblocks it
	case dst.inbound <- m:
		dst.inMu.RUnlock()
	case <-dst.done:
		// Destination crashed while our message sat in its RX queue's
		// backpressure; the RPC layer surfaces this as a timeout/retry.
		dst.inMu.RUnlock()
		return ErrUnreachable
	}
	p.fab.delivered.Add(1)
	p.fab.deliveredBytes.Add(size)
	return nil
}
