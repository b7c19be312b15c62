package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rocksteady/internal/server"
	"rocksteady/internal/wire"
)

// Manager is a server's target-side migration engine. Install it with
// server.SetMigrationHandler; MigrateTablet RPCs addressed to the server
// then start Rocksteady migrations.
type Manager struct {
	srv  *server.Server
	opts Options

	mu     sync.Mutex
	active []*Migration
	past   []*Migration
}

var _ server.MigrationHandler = (*Manager)(nil)

// NewManager creates a migration manager for a server and installs it.
func NewManager(srv *server.Server, opts Options) *Manager {
	opts.applyDefaults()
	m := &Manager{srv: srv, opts: opts}
	srv.SetMigrationHandler(m)
	return m
}

// Options returns the manager's configuration.
func (m *Manager) Options() Options { return m.opts }

// HandleMigrateTablet implements server.MigrationHandler: it prepares the
// source, transfers ownership (unless the retain-ownership baseline is
// selected), and starts the migration's pull/replay machinery. It returns
// as soon as ownership has moved — the paper's "immediate transfer of
// ownership" — while data transfer continues in the background. The
// request context's deadline and trace id carry into the migration (the
// whole pull chain then runs under the client-imposed bound); its
// cancellation does not, since the reply returns long before the
// migration finishes.
func (m *Manager) HandleMigrateTablet(ctx context.Context, table wire.TableID, rng wire.HashRange, source wire.ServerID) wire.Status {
	m.mu.Lock()
	for _, g := range m.active {
		if g.Table == table && g.Range.Overlaps(rng) {
			m.mu.Unlock()
			return wire.StatusMigrationInProgress
		}
	}
	g := newMigration(ctx, m, table, rng, source)
	m.active = append(m.active, g)
	m.mu.Unlock()

	status := g.begin()
	if status != wire.StatusOK {
		g.finished = time.Now()
		m.finish(g)
		close(g.done)
		g.cancelCause(nil) // release; begin's fail() already recorded the cause
		g.releaseTimer()
		return status
	}
	go g.run()
	return wire.StatusOK
}

// HandleMissingKey implements server.MigrationHandler (§3.3).
func (m *Manager) HandleMissingKey(table wire.TableID, hash uint64) (uint32, bool) {
	g := m.migrationFor(table, hash)
	if g == nil {
		if f := m.lastMigrationFor(table, hash); f != nil && f.Result().Err != nil {
			// The covering migration died (a fault killed its pulls) and the
			// tablet has not been reverted yet. The record may well still
			// exist at the source, so absence must not be asserted: answer
			// "retry" until the operator's revert or recovery resolves the
			// limbo. Claiming NoSuchKey here would teach clients a deletion
			// that never happened.
			return m.opts.RetryHintMicros, false
		}
		// No migration covers the key (it just completed): truly absent.
		return 0, true
	}
	return g.requestPriorityPull(hash)
}

// CancelIncoming implements server.MigrationHandler: the coordinator
// recovered the range elsewhere, so any matching migration aborts.
func (m *Manager) CancelIncoming(table wire.TableID, rng wire.HashRange) {
	m.mu.Lock()
	var victims []*Migration
	for _, g := range m.active {
		if g.Table == table && g.Range.Overlaps(rng) {
			victims = append(victims, g)
		}
	}
	m.mu.Unlock()
	for _, g := range victims {
		g.cancel(fmt.Errorf("migration cancelled: range recovered elsewhere"))
	}
}

func (m *Manager) migrationFor(table wire.TableID, hash uint64) *Migration {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.active {
		if g.Table == table && g.Range.Contains(hash) {
			return g
		}
	}
	return nil
}

// lastMigrationFor returns the most recent finished migration covering the
// hash, or nil. The newest one decides whether absence is assertable: a
// clean finish pulled everything, a failed one may have left records
// stranded at the source.
func (m *Manager) lastMigrationFor(table wire.TableID, hash uint64) *Migration {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.past) - 1; i >= 0; i-- {
		if m.past[i].Table == table && m.past[i].Range.Contains(hash) {
			return m.past[i]
		}
	}
	return nil
}

func (m *Manager) finish(g *Migration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.active[:0]
	for _, a := range m.active {
		if a != g {
			kept = append(kept, a)
		}
	}
	m.active = append([]*Migration(nil), kept...)
	m.past = append(m.past, g)
}

// Migration looks up an active or completed migration by its range.
func (m *Manager) Migration(table wire.TableID, rng wire.HashRange) *Migration {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.active {
		if g.Table == table && g.Range == rng {
			return g
		}
	}
	for i := len(m.past) - 1; i >= 0; i-- {
		if m.past[i].Table == table && m.past[i].Range == rng {
			return m.past[i]
		}
	}
	return nil
}

// Active returns the number of in-flight migrations.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Result summarizes a finished migration.
type Result struct {
	Table  wire.TableID
	Range  wire.HashRange
	Source wire.ServerID

	Started  time.Time
	Finished time.Time

	// The phase ledger splits Duration: Prologue until the pulls start
	// (prepare, ownership transfer), Pull until every pulled and
	// PriorityPulled record is replayed, Rereplication the side logs'
	// lazy re-replication, and Epilogue the rest (side-log commit,
	// dependency drop, source drop, tombstone sweep). A phase the
	// migration never reached is zero.
	Prologue      time.Duration
	Pull          time.Duration
	Rereplication time.Duration
	Epilogue      time.Duration

	RecordsPulled       int64
	BytesPulled         int64
	PullRPCs            int64
	PriorityPullRPCs    int64
	PriorityPullRecords int64
	TailRecords         int64

	Err error
}

// Duration returns the migration's wall time.
func (r Result) Duration() time.Duration { return r.Finished.Sub(r.Started) }

// RateMBps returns the effective transfer rate in MB/s.
func (r Result) RateMBps() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.BytesPulled) / 1e6 / d
}

func (r Result) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return fmt.Sprintf("migrated %d records (%.1f MB) in %v (%.1f MB/s, %d pulls, %d prio-pulls; "+
		"prologue %.1f ms, pull %.1f ms, re-replication %.1f ms, epilogue %.1f ms)",
		r.RecordsPulled, float64(r.BytesPulled)/1e6, r.Duration().Round(time.Millisecond),
		r.RateMBps(), r.PullRPCs, r.PriorityPullRPCs,
		ms(r.Prologue), ms(r.Pull), ms(r.Rereplication), ms(r.Epilogue))
}

// span is to − from, or zero unless both instants were recorded.
func span(from, to time.Time) time.Duration {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	return to.Sub(from)
}
