// Package dispatch implements RAMCloud's threading model (§3.1): one
// dispatch loop per server polls the network and hands requests to a fixed
// pool of worker cores; tasks run to completion (no preemption); when all
// workers are busy, tasks wait in strict priority queues and a freed worker
// takes the front of the highest-priority non-empty queue.
//
// The model is what lets Rocksteady treat migration as a background task:
// bulk Pull and replay work runs at PriorityBackground and is displaced by
// foreground client requests, while PriorityPulls preempt everything in the
// queue (not on the cores — run-to-completion is preserved).
//
// The queues are sharded per worker: tasks are spread round-robin over one
// inbound queue per worker, so enqueue and pickup contend on a per-worker
// mutex instead of a scheduler-global one. An idle worker steals from its
// neighbors' queues before parking, which preserves work conservation.
// Strict priority ordering holds within each queue (and therefore globally
// when the pool has one worker, the configuration the ordering tests pin).
//
// Workers are goroutines rather than pinned cores; busy-time accounting
// (BusyNanos) substitutes for hardware core utilization in the paper's
// Figures 11 and 14.
package dispatch

import (
	"sync"
	"sync/atomic"
	"time"

	"rocksteady/internal/metrics"
	"rocksteady/internal/wire"
)

// Task is a unit of work executed to completion on one worker.
type Task func()

// TaskW is a task that receives the index of the worker running it
// (0..Workers()-1). Handlers use the index to pick a per-worker shard of
// contended state (e.g. sharded stat counters or log heads) without any
// goroutine-local lookup.
type TaskW func(worker int)

// TaskMeta carries per-request scheduling metadata alongside a task:
// the envelope deadline that makes the queues deadline-aware, and the
// trace identity recorded into the scheduler's span ring.
type TaskMeta struct {
	// DeadlineNanos is the absolute Unix-nanosecond deadline; a task still
	// queued past it is shed instead of run. Zero means no deadline.
	DeadlineNanos int64
	// TraceID correlates the task's dispatch span with its RPC chain.
	TraceID uint64
	// Op is the wire op code recorded in the span.
	Op uint8
}

// queuedTask is one queue entry: the task plus its scheduling metadata
// and enqueue time (for the queue-wait histogram and deadline check).
type queuedTask struct {
	fn         Task
	fnw        TaskW // set instead of fn for worker-indexed tasks
	meta       TaskMeta
	enqueuedAt time.Time
}

// prioQueue is a FIFO with a popped-prefix head index so pops don't shift
// the slice; the backing array is reused once the queue drains, keeping
// the steady-state enqueue→pickup path allocation-free.
type prioQueue struct {
	items []queuedTask
	head  int
}

//lint:hotpath
func (q *prioQueue) push(qt queuedTask) {
	q.items = append(q.items, qt)
}

//lint:hotpath
func (q *prioQueue) pop() queuedTask {
	qt := q.items[q.head]
	q.items[q.head] = queuedTask{} // drop the fn reference
	q.head++
	if q.head == len(q.items) {
		// Drained: rewind into the same backing array.
		q.items = q.items[:0]
		q.head = 0
	}
	return qt
}

func (q *prioQueue) len() int { return len(q.items) - q.head }

// workerQueue is one worker's inbound task queue: a strict-priority set of
// FIFOs behind a private mutex. count mirrors the total length so stealers
// can skip empty queues without touching the lock. Padded so neighboring
// queues never share a cache line.
type workerQueue struct {
	mu     sync.Mutex
	queues [wire.NumPriorities]prioQueue
	count  atomic.Int64
	_      [64]byte
}

// traceRingCapacity bounds the per-scheduler span ring.
const traceRingCapacity = 1024

// Scheduler owns a fixed worker pool and the per-worker queues feeding it.
type Scheduler struct {
	workers int

	// qs has one inbound queue per worker; rr is the round-robin enqueue
	// cursor spreading tasks across them.
	qs []workerQueue
	rr atomic.Uint64

	// Park protocol: a worker that finds every queue empty registers in
	// parked and sleeps on parkCond; an enqueuer publishes pending before
	// reading parked, and a parker publishes parked before reading pending
	// (both seq-cst), so at least one side always sees the other — no lost
	// wakeup. pending can dip transiently negative (a worker's decrement
	// racing an enqueuer's increment), hence the <= 0 wait condition.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	parked   atomic.Int32
	pending  atomic.Int64
	closed   atomic.Bool

	idleWorkers atomic.Int32
	busyNanos   atomic.Int64
	started     atomic.Int64 // tasks started, per-priority below
	perPriority [wire.NumPriorities]atomic.Int64
	shed        [wire.NumPriorities]atomic.Int64 // deadline-expired, never run

	// queueWait and service split each task's life into time spent waiting
	// in its priority queue versus time on a worker — the decomposition
	// behind the paper's Figure 14 core-utilization story.
	queueWait [wire.NumPriorities]metrics.Histogram
	service   [wire.NumPriorities]metrics.Histogram
	trace     *metrics.TraceRing

	// capCh carries edge-triggered capacity wakeups: a token is deposited
	// (non-blocking) whenever a worker frees up or a queue shrinks, so flow
	// control can wait for capacity instead of spin-polling.
	capCh chan struct{}

	wg sync.WaitGroup
}

// NewScheduler starts a pool of the given number of workers. The paper's
// configuration uses 12 workers per server.
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{
		workers: workers,
		qs:      make([]workerQueue, workers),
		trace:   metrics.NewTraceRing(traceRingCapacity),
		capCh:   make(chan struct{}, 1),
	}
	s.parkCond = sync.NewCond(&s.parkMu)
	s.idleWorkers.Store(int32(workers))
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker(i)
	}
	return s
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.workers }

// Enqueue submits a task at the given priority with no deadline or trace
// identity. It never blocks; if all workers are busy the task waits in
// its priority queue.
func (s *Scheduler) Enqueue(p wire.Priority, t Task) {
	if p >= wire.NumPriorities {
		p = wire.PriorityBackground
	}
	s.enqueue(p, queuedTask{fn: t, enqueuedAt: time.Now()})
}

// EnqueueMetaWorker submits a worker-indexed task with scheduling
// metadata: t runs with the index of the worker executing it. A task
// whose deadline has already passed when a worker would pick it up is
// shed: it never runs, the per-priority shed counter increments, and a
// shed span is recorded. It never blocks.
func (s *Scheduler) EnqueueMetaWorker(p wire.Priority, meta TaskMeta, t TaskW) {
	if p >= wire.NumPriorities {
		p = wire.PriorityBackground
	}
	s.enqueue(p, queuedTask{fnw: t, meta: meta, enqueuedAt: time.Now()})
}

//lint:hotpath
func (s *Scheduler) enqueue(p wire.Priority, qt queuedTask) {
	q := &s.qs[s.rr.Add(1)%uint64(len(s.qs))]
	q.mu.Lock()
	if s.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.queues[p].push(qt)
	q.count.Add(1)
	q.mu.Unlock()
	s.pending.Add(1)
	if s.parked.Load() > 0 {
		s.parkMu.Lock()
		s.parkCond.Signal()
		s.parkMu.Unlock()
	}
}

// tryPop takes the highest-priority task from the worker's own queue, or
// failing that steals from a neighbor (scanning count atomics first so an
// empty pool costs no lock traffic). Reports the task and its priority.
//
//lint:hotpath
func (s *Scheduler) tryPop(id int) (queuedTask, wire.Priority, bool) {
	n := len(s.qs)
	for off := 0; off < n; off++ {
		q := &s.qs[(id+off)%n]
		if q.count.Load() == 0 {
			continue
		}
		q.mu.Lock()
		for p := wire.Priority(0); p < wire.NumPriorities; p++ {
			if q.queues[p].len() > 0 {
				qt := q.queues[p].pop()
				q.count.Add(-1)
				q.mu.Unlock()
				s.pending.Add(-1)
				return qt, p, true
			}
		}
		q.mu.Unlock()
	}
	return queuedTask{}, 0, false
}

// IdleWorkers returns how many workers are currently idle. The migration
// manager uses this as built-in flow control: it issues no new Pull when
// every worker is busy (§3.1.2).
func (s *Scheduler) IdleWorkers() int { return int(s.idleWorkers.Load()) }

// CapacityChanged returns a channel that receives a token whenever worker
// capacity may have freed up (a task finished or left a queue). Waiters
// must re-check their predicate after every receive: tokens are coalesced,
// not one-per-event. This replaces spin-polling in the migration manager's
// flow control.
func (s *Scheduler) CapacityChanged() <-chan struct{} { return s.capCh }

func (s *Scheduler) notifyCapacity() {
	select {
	case s.capCh <- struct{}{}:
	default:
	}
}

// QueuedTasks returns the number of tasks waiting (all priorities).
func (s *Scheduler) QueuedTasks() int {
	if n := s.pending.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// QueuedAt returns the number of tasks waiting at one priority.
func (s *Scheduler) QueuedAt(p wire.Priority) int {
	if p >= wire.NumPriorities {
		return 0
	}
	total := 0
	for i := range s.qs {
		q := &s.qs[i]
		q.mu.Lock()
		total += q.queues[p].len()
		q.mu.Unlock()
	}
	return total
}

// BusyNanos returns cumulative worker busy time across the pool; sampled
// by the metrics package to derive "active worker cores" (Figure 11).
func (s *Scheduler) BusyNanos() int64 { return s.busyNanos.Load() }

// TasksStarted returns the total number of tasks executed and the count
// per priority.
func (s *Scheduler) TasksStarted() (total int64, perPriority [wire.NumPriorities]int64) {
	for i := range s.perPriority {
		perPriority[i] = s.perPriority[i].Load()
	}
	return s.started.Load(), perPriority
}

// TasksShed returns how many deadline-expired tasks were shed from the
// queues without running, in total and per priority.
func (s *Scheduler) TasksShed() (total int64, perPriority [wire.NumPriorities]int64) {
	for i := range s.shed {
		perPriority[i] = s.shed[i].Load()
		total += perPriority[i]
	}
	return total, perPriority
}

// ShedCount returns the shed counter for one priority.
func (s *Scheduler) ShedCount(p wire.Priority) int64 {
	if p >= wire.NumPriorities {
		return 0
	}
	return s.shed[p].Load()
}

// QueueWaitHistogram returns the time-in-queue histogram for one
// priority (includes shed tasks' waits).
func (s *Scheduler) QueueWaitHistogram(p wire.Priority) *metrics.Histogram {
	if p >= wire.NumPriorities {
		p = wire.PriorityBackground
	}
	return &s.queueWait[p]
}

// ServiceHistogram returns the on-worker service-time histogram for one
// priority.
func (s *Scheduler) ServiceHistogram(p wire.Priority) *metrics.Histogram {
	if p >= wire.NumPriorities {
		p = wire.PriorityBackground
	}
	return &s.service[p]
}

// Trace returns the scheduler's bounded span ring: one span per
// dispatched (or shed) task, newest overwriting oldest.
func (s *Scheduler) Trace() *metrics.TraceRing { return s.trace }

// Close drains nothing: queued tasks are discarded and workers exit.
// Models a server crash.
func (s *Scheduler) Close() {
	s.closed.Store(true)
	for i := range s.qs {
		q := &s.qs[i]
		q.mu.Lock()
		for p := range q.queues {
			q.queues[p] = prioQueue{}
		}
		n := q.count.Swap(0)
		q.mu.Unlock()
		s.pending.Add(-n)
	}
	s.parkMu.Lock()
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
	s.notifyCapacity()
	s.wg.Wait()
}

func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	for {
		task, pri, ok := s.tryPop(id)
		if !ok {
			if s.closed.Load() {
				return
			}
			s.parkMu.Lock()
			s.parked.Add(1)
			for s.pending.Load() <= 0 && !s.closed.Load() {
				s.parkCond.Wait()
			}
			s.parked.Add(-1)
			s.parkMu.Unlock()
			if s.closed.Load() {
				return
			}
			continue
		}
		start := time.Now()
		wait := start.Sub(task.enqueuedAt)
		s.queueWait[pri].Record(wait)
		// Deadline-aware shedding (checked at pickup, when run-to-completion
		// would otherwise commit a worker): a request already past its
		// deadline has been abandoned by its caller, so running it only
		// steals a core from live work.
		if task.meta.DeadlineNanos != 0 && start.UnixNano() > task.meta.DeadlineNanos {
			s.shed[pri].Add(1)
			s.trace.Record(metrics.Span{
				TraceID:        task.meta.TraceID,
				Op:             task.meta.Op,
				Priority:       uint8(pri),
				Shed:           true,
				StartNanos:     start.UnixNano(),
				QueueWaitNanos: wait.Nanoseconds(),
			})
			s.notifyCapacity() // a queue shrank: waiters re-check their predicate
			continue
		}
		s.idleWorkers.Add(-1)
		s.notifyCapacity() // a queue shrank: waiters re-check their predicate
		if task.fnw != nil {
			task.fnw(id)
		} else {
			task.fn()
		}
		service := time.Since(start)
		s.busyNanos.Add(service.Nanoseconds())
		s.started.Add(1)
		s.perPriority[pri].Add(1)
		s.service[pri].Record(service)
		s.trace.Record(metrics.Span{
			TraceID:        task.meta.TraceID,
			Op:             task.meta.Op,
			Priority:       uint8(pri),
			StartNanos:     start.UnixNano(),
			QueueWaitNanos: wait.Nanoseconds(),
			ServiceNanos:   service.Nanoseconds(),
		})
		s.idleWorkers.Add(1)
		s.notifyCapacity()
	}
}
