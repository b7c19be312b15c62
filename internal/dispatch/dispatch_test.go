package dispatch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rocksteady/internal/wire"
)

func TestSchedulerRunsTasks(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		s.Enqueue(wire.PriorityForeground, func() {
			n.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks", n.Load())
	}
	total, per := s.TasksStarted()
	if total != 100 || per[wire.PriorityForeground] != 100 {
		t.Fatalf("counters: total=%d per=%v", total, per)
	}
}

// With every worker blocked, queued tasks must drain strictly by priority.
func TestSchedulerPriorityOrder(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	s.Enqueue(wire.PriorityForeground, func() {
		close(running)
		<-block
	})
	<-running

	var mu sync.Mutex
	var order []wire.Priority
	var wg sync.WaitGroup
	add := func(p wire.Priority) {
		wg.Add(1)
		s.Enqueue(p, func() {
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
			wg.Done()
		})
	}
	// Enqueue in worst-case order: lowest priority first.
	add(wire.PriorityBackground)
	add(wire.PriorityBackground)
	add(wire.PriorityReplication)
	add(wire.PriorityForeground)
	add(wire.PriorityPriorityPull)

	close(block)
	wg.Wait()

	want := []wire.Priority{
		wire.PriorityPriorityPull,
		wire.PriorityForeground,
		wire.PriorityReplication,
		wire.PriorityBackground,
		wire.PriorityBackground,
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerFIFOWithinPriority(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	block := make(chan struct{})
	running := make(chan struct{})
	s.Enqueue(wire.PriorityForeground, func() { close(running); <-block })
	<-running

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		s.Enqueue(wire.PriorityForeground, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	close(block)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestIdleWorkersTracking(t *testing.T) {
	s := NewScheduler(3)
	defer s.Close()
	if s.IdleWorkers() != 3 {
		t.Fatalf("fresh pool idle = %d", s.IdleWorkers())
	}
	block := make(chan struct{})
	started := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		s.Enqueue(wire.PriorityForeground, func() {
			started <- struct{}{}
			<-block
		})
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	if s.IdleWorkers() != 0 {
		t.Fatalf("all busy but idle = %d", s.IdleWorkers())
	}
	s.Enqueue(wire.PriorityBackground, func() {})
	if q := s.QueuedTasks(); q != 1 {
		t.Fatalf("queued = %d", q)
	}
	if q := s.QueuedAt(wire.PriorityBackground); q != 1 {
		t.Fatalf("queuedAt = %d", q)
	}
	close(block)
	deadline := time.After(2 * time.Second)
	for s.IdleWorkers() != 3 {
		select {
		case <-deadline:
			t.Fatal("workers never went idle")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestBusyNanosAccumulates(t *testing.T) {
	s := NewScheduler(2)
	var wg sync.WaitGroup
	wg.Add(1)
	s.Enqueue(wire.PriorityForeground, func() {
		time.Sleep(5 * time.Millisecond)
		wg.Done()
	})
	wg.Wait()
	// The worker books the task's busy time after the task returns; Close
	// waits for the workers, so the time is booked once it returns.
	s.Close()
	if s.BusyNanos() < (4 * time.Millisecond).Nanoseconds() {
		t.Fatalf("busy nanos %d too small", s.BusyNanos())
	}
}

func TestCloseDiscardsQueuedWork(t *testing.T) {
	s := NewScheduler(1)
	block := make(chan struct{})
	running := make(chan struct{})
	s.Enqueue(wire.PriorityForeground, func() { close(running); <-block })
	<-running
	var ran atomic.Bool
	s.Enqueue(wire.PriorityForeground, func() { ran.Store(true) })
	close(block)
	s.Close()
	if ran.Load() {
		t.Error("queued task ran after Close")
	}
	// Enqueue after close is a no-op, not a panic.
	s.Enqueue(wire.PriorityForeground, func() { t.Error("ran after close") })
	time.Sleep(10 * time.Millisecond)
}

func TestSchedulerMinimumOneWorker(t *testing.T) {
	s := NewScheduler(0)
	defer s.Close()
	if s.Workers() != 1 {
		t.Fatalf("workers = %d", s.Workers())
	}
	var wg sync.WaitGroup
	wg.Add(1)
	s.Enqueue(wire.NumPriorities+5, func() { wg.Done() }) // out-of-range priority clamps
	wg.Wait()
}

func TestSchedulerParallelism(t *testing.T) {
	s := NewScheduler(8)
	defer s.Close()
	var concurrent, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		s.Enqueue(wire.PriorityBackground, func() {
			c := concurrent.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			concurrent.Add(-1)
			wg.Done()
		})
	}
	wg.Wait()
	if peak.Load() < 4 {
		t.Fatalf("peak parallelism %d; want >= 4 on 8 workers", peak.Load())
	}
}

// TestCapacityChanged verifies the event-driven flow-control wakeup: a
// waiter parked on CapacityChanged is woken when a task completes, without
// polling.
func TestCapacityChanged(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()

	// Saturate the single worker.
	release := make(chan struct{})
	running := make(chan struct{})
	s.Enqueue(wire.PriorityForeground, func() {
		close(running)
		<-release
	})
	<-running

	// Drain any stale token so the next receive observes fresh capacity.
	select {
	case <-s.CapacityChanged():
	default:
	}

	woke := make(chan struct{})
	go func() {
		<-s.CapacityChanged()
		close(woke)
	}()
	select {
	case <-woke:
		t.Fatal("woke before any capacity change")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("no capacity wakeup after task completion")
	}
	if s.IdleWorkers() != 1 {
		t.Fatalf("idle workers = %d", s.IdleWorkers())
	}
}

// TestCapacityTokensCoalesce: the channel holds at most one token; many
// completions while nobody listens must not block workers.
func TestCapacityTokensCoalesce(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		s.Enqueue(wire.PriorityBackground, wg.Done)
	}
	wg.Wait() // would deadlock if notifyCapacity blocked
	select {
	case <-s.CapacityChanged():
	default:
		t.Fatal("no token pending after completions")
	}
}

// TestDeadlineExpiredTaskShed pins the deadline-aware queues: a task whose
// deadline passes while it waits behind a blocked worker is shed at pickup —
// it never runs, the per-priority shed counter increments, and a shed span
// lands in the trace ring — while live work queued behind it still runs.
func TestDeadlineExpiredTaskShed(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	s.Enqueue(wire.PriorityForeground, func() {
		close(running)
		<-block
	})
	<-running // the only worker is now committed

	// Already expired when enqueued: the pickup check must shed it no
	// matter how quickly the worker frees up.
	expired := time.Now().Add(-time.Millisecond).UnixNano()
	ran := make(chan struct{})
	s.EnqueueMetaWorker(wire.PriorityForeground, TaskMeta{DeadlineNanos: expired, TraceID: 7, Op: 42}, func(int) {
		close(ran)
	})
	live := make(chan struct{})
	s.EnqueueMetaWorker(wire.PriorityForeground, TaskMeta{TraceID: 8}, func(int) {
		close(live)
	})

	close(block)
	select {
	case <-live:
	case <-time.After(2 * time.Second):
		t.Fatal("live task behind the expired one never ran")
	}
	select {
	case <-ran:
		t.Fatal("deadline-expired task ran")
	default:
	}
	if got := s.ShedCount(wire.PriorityForeground); got != 1 {
		t.Fatalf("ShedCount = %d, want 1", got)
	}
	total, per := s.TasksShed()
	if total != 1 || per[wire.PriorityForeground] != 1 {
		t.Fatalf("TasksShed = %d %v, want 1 at foreground", total, per)
	}
	var shedSpan bool
	for _, sp := range s.Trace().Snapshot() {
		if sp.Shed && sp.TraceID == 7 && sp.Op == 42 && sp.Priority == uint8(wire.PriorityForeground) {
			shedSpan = true
		}
	}
	if !shedSpan {
		t.Fatal("no shed span recorded in the trace ring")
	}
}

// TestNoDeadlineNeverShed: zero DeadlineNanos means no deadline — tasks
// must run regardless of how long they waited.
func TestNoDeadlineNeverShed(t *testing.T) {
	s := NewScheduler(1)
	defer s.Close()
	done := make(chan struct{})
	s.EnqueueMetaWorker(wire.PriorityBackground, TaskMeta{}, func(int) { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("task did not run")
	}
	if total, _ := s.TasksShed(); total != 0 {
		t.Fatalf("shed %d tasks, want 0", total)
	}
}

// TestWorkStealing pins the multi-queue work-conservation property: tasks
// are spread round-robin over per-worker queues, so with one worker wedged
// a burst that round-robin lands partly on the wedged worker's queue must
// still be drained (stolen) by the free workers.
func TestWorkStealing(t *testing.T) {
	s := NewScheduler(4)
	defer s.Close()

	// Wedge one worker indefinitely.
	block := make(chan struct{})
	running := make(chan struct{})
	s.Enqueue(wire.PriorityForeground, func() {
		close(running)
		<-block
	})
	<-running

	// More tasks than queues: round-robin guarantees several land on the
	// wedged worker's queue. All must complete without releasing it.
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		s.Enqueue(wire.PriorityForeground, func() { wg.Done() })
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tasks stranded on a wedged worker's queue were not stolen")
	}
	close(block)
}

// TestStealPreservesExecution: tasks enqueued while every worker is parked
// are all executed exactly once even when pickup is via stealing.
func TestStealExactlyOnce(t *testing.T) {
	s := NewScheduler(8)
	defer s.Close()
	var n atomic.Int32
	var wg sync.WaitGroup
	for round := 0; round < 50; round++ {
		for i := 0; i < 16; i++ {
			wg.Add(1)
			s.Enqueue(wire.PriorityBackground, func() {
				n.Add(1)
				wg.Done()
			})
		}
		wg.Wait()
	}
	if n.Load() != 50*16 {
		t.Fatalf("executed %d tasks, want %d", n.Load(), 50*16)
	}
}

// BenchmarkEnqueuePickup measures the enqueue→pickup fast path (no
// deadline). The root alloc-budget test asserts this path is zero-alloc in
// steady state: the per-worker queue reuses its backing array and the task
// value holds no heap references beyond the preallocated closure.
func BenchmarkEnqueuePickup(b *testing.B) {
	s := NewScheduler(1)
	defer s.Close()
	done := make(chan struct{})
	task := Task(func() { done <- struct{}{} })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Enqueue(wire.PriorityForeground, task)
		<-done
	}
}
