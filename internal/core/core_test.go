package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rocksteady/internal/server"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

var errTest = errors.New("test failure")

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.applyDefaults()
	if o.Partitions != 8 {
		t.Errorf("Partitions = %d, want the paper's 8", o.Partitions)
	}
	if o.PullBytes != 20<<10 {
		t.Errorf("PullBytes = %d, want the paper's 20 KB", o.PullBytes)
	}
	if o.PriorityPullBatch != 16 {
		t.Errorf("PriorityPullBatch = %d, want the paper's 16", o.PriorityPullBatch)
	}
	if o.RetryHintMicros != 40 {
		t.Errorf("RetryHintMicros = %d", o.RetryHintMicros)
	}
}

func TestOptionsRetainOwnershipImplications(t *testing.T) {
	o := Options{SourceRetainsOwnership: true}
	o.applyDefaults()
	if !o.SyncRereplication {
		t.Error("retain-ownership must re-replicate synchronously")
	}
	if !o.DisablePriorityPulls {
		t.Error("retain-ownership has no client reads at the target to prioritize")
	}
}

func TestBaselineOptionsImplications(t *testing.T) {
	o := BaselineOptions{SkipCopy: true}
	o.applyDefaults()
	if !o.SkipTx || !o.SkipRereplication {
		t.Errorf("SkipCopy must imply SkipTx and SkipRereplication: %+v", o)
	}
	o = BaselineOptions{SkipReplay: true}
	o.applyDefaults()
	if !o.SkipRereplication {
		t.Error("SkipReplay must imply SkipRereplication")
	}
	if o.ChunkBytes != 512<<10 {
		t.Errorf("ChunkBytes default = %d", o.ChunkBytes)
	}
}

func TestResultFormatting(t *testing.T) {
	r := Result{
		RecordsPulled: 1000,
		BytesPulled:   10_000_000,
		Started:       time.Now().Add(-time.Second),
		Finished:      time.Now(),
		PullRPCs:      50,
	}
	if r.RateMBps() < 5 || r.RateMBps() > 20 {
		t.Errorf("RateMBps = %v", r.RateMBps())
	}
	if !strings.Contains(r.String(), "1000 records") {
		t.Errorf("String() = %q", r.String())
	}
	var zero Result
	if zero.RateMBps() != 0 {
		t.Error("zero result rate must be 0")
	}
}

func TestBaselineResultFormatting(t *testing.T) {
	r := BaselineResult{Records: 5, Bytes: 1e6,
		Started: time.Now().Add(-100 * time.Millisecond), Finished: time.Now()}
	if r.RateMBps() <= 0 {
		t.Errorf("RateMBps = %v", r.RateMBps())
	}
	if !strings.Contains(r.String(), "5 records") {
		t.Errorf("String() = %q", r.String())
	}
}

// newManagerRig builds a server+manager pair without a coordinator, for
// manager-local behaviors.
func newManagerRig(t *testing.T, opts Options) (*Manager, *server.Server) {
	t.Helper()
	f := transport.NewFabric(transport.FabricConfig{})
	srv := server.New(server.Config{ID: 10, Workers: 2}, f.Attach(10))
	t.Cleanup(srv.Close)
	return NewManager(srv, opts), srv
}

func TestManagerMissingKeyWithoutMigration(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	retry, missing := m.HandleMissingKey(1, 12345)
	if !missing || retry != 0 {
		t.Fatalf("no active migration: retry=%d missing=%v", retry, missing)
	}
}

func TestManagerRejectsOverlapBookkeeping(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	if m.Active() != 0 {
		t.Fatal("fresh manager has active migrations")
	}
	if g := m.Migration(1, wire.FullRange()); g != nil {
		t.Fatal("phantom migration")
	}
}

func TestManagerMigrateToMissingSourceFails(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	// Source 99 does not exist: the Prepare call fails fast and the
	// migration must not be left registered.
	status := m.HandleMigrateTablet(context.Background(), 1, wire.FullRange(), 99)
	if status == wire.StatusOK {
		t.Fatal("migration to dead source accepted")
	}
	if m.Active() != 0 {
		t.Fatal("failed migration left active")
	}
	// Its result is still inspectable.
	g := m.Migration(1, wire.FullRange())
	if g == nil || g.Result().Err == nil {
		t.Fatal("failed migration not recorded")
	}
}

func TestManagerCancelIncomingIsSafeWithoutMatch(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	m.CancelIncoming(1, wire.FullRange()) // no-op, no panic
}

func TestMigrationWaitAfterFailure(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	_ = m.HandleMigrateTablet(context.Background(), 1, wire.FullRange(), 99)
	g := m.Migration(1, wire.FullRange())
	if g == nil {
		t.Fatal("missing migration record")
	}
	res := g.Result()
	if res.Err == nil {
		t.Fatal("expected failure recorded")
	}
	if res.Table != 1 || res.Source != 99 {
		t.Fatalf("result identity: %+v", res)
	}
}

// TestCancelUnblocksPriorityPullDrain: cancellation must wake a drain that
// is waiting while hashes are still queued (the loop exits on cancel with a
// non-empty queue, so only the fail-side broadcast can release the waiter).
func TestCancelUnblocksPriorityPullDrain(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	g := newMigration(context.Background(), m, 1, wire.FullRange(), 99)
	g.ppMu.Lock()
	g.ppQueued[42] = struct{}{} // stranded hash, no loop running
	g.ppMu.Unlock()

	drained := make(chan struct{})
	go func() {
		g.drainPriorityPulls()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("drain returned with queued hashes and no cancellation")
	case <-time.After(20 * time.Millisecond):
	}

	g.fail(errTest)
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not wake drainPriorityPulls")
	}
}

// TestNoPriorityPullAfterPulls: once every background Pull has been
// replayed, a key absent at the target is absent at the source too, so a
// read of it is answered "missing" and starts no PriorityPull — whose
// replay would race the epilogue committing the side logs.
func TestNoPriorityPullAfterPulls(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	g := newMigration(context.Background(), m, 1, wire.FullRange(), 99)
	g.ppMu.Lock()
	g.ppPulled = true
	g.ppMu.Unlock()
	if retry, missing := g.requestPriorityPull(42); !missing || retry != 0 {
		t.Fatalf("after the pulls: retry=%d missing=%v", retry, missing)
	}
	g.ppMu.Lock()
	defer g.ppMu.Unlock()
	if g.ppActive || len(g.ppQueued) != 0 {
		t.Fatal("a PriorityPull started after the background pulls finished")
	}
}

// TestCancelUnblocksRun: in PriorityPull-only mode run() parks on the
// cancellation channel; fail() must release it promptly (event-driven, no
// polling).
func TestCancelUnblocksRun(t *testing.T) {
	m, _ := newManagerRig(t, Options{DisableBackgroundPulls: true})
	g := newMigration(context.Background(), m, 1, wire.FullRange(), 99)
	go g.run()
	select {
	case <-g.Done():
		t.Fatal("run finished without cancellation")
	case <-time.After(20 * time.Millisecond):
	}
	start := time.Now()
	g.fail(errTest)
	select {
	case <-g.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not complete the migration")
	}
	if wait := time.Since(start); wait > 500*time.Millisecond {
		t.Fatalf("cancellation took %v; want immediate wakeup", wait)
	}
	if g.Result().Err == nil {
		t.Fatal("failure not recorded")
	}
}

// TestFailIdempotent: repeated failures keep the first error and cancel the
// migration context exactly once, with the first failure as its cause.
func TestFailIdempotent(t *testing.T) {
	m, _ := newManagerRig(t, Options{})
	g := newMigration(context.Background(), m, 1, wire.FullRange(), 99)
	g.fail(errTest)
	g.fail(errors.New("second"))
	g.fail(nil) // no-op
	select {
	case <-g.ctx.Done():
	default:
		t.Fatal("migration context not cancelled")
	}
	if got := context.Cause(g.ctx); got != errTest {
		t.Fatalf("context cause %v, want first failure", got)
	}
	if got := g.Result().Err; got != errTest {
		t.Fatalf("recorded error %v, want first failure", got)
	}
}

// TestDrainWaitsForSyncPriorityPull: a synchronous PriorityPull that
// passed its check before the background pulls finished is replayed
// before the epilogue commits the side logs it replays into.
func TestDrainWaitsForSyncPriorityPull(t *testing.T) {
	m, _ := newManagerRig(t, Options{SyncPriorityPulls: true})
	g := newMigration(context.Background(), m, 1, wire.FullRange(), 99)
	g.ppMu.Lock()
	g.ppSyncInflight++ // a pull past requestPriorityPull's check
	g.ppPulled = true
	g.ppMu.Unlock()

	drained := make(chan struct{})
	go func() {
		g.drainPriorityPulls()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("drain returned with a synchronous PriorityPull in flight")
	case <-time.After(20 * time.Millisecond):
	}
	g.syncPriorityPullDone()
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("the finished PriorityPull did not wake the drain")
	}
}
