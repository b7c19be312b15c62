package cluster

// scenario_test.go is the shared driver for the fault-injection scenario
// suite (faults_test.go, chaos_test.go): seed selection with replay
// logging, a single-writer-per-key workload tracked by check.KeyModel
// oracles, an ownership-exclusivity poller, and the converge helper that
// applies the operator remedy for a fault-killed migration.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/core"
	"rocksteady/internal/faultinject"
	"rocksteady/internal/faultinject/check"
	"rocksteady/internal/wire"
)

// faultSeeds returns the seeds every fault scenario runs with. FAULT_SEEDS
// overrides the default (comma-separated integers); FAULT_RANDOM_SEED=1
// appends a time-derived seed, printed so any failure it uncovers can be
// replayed exactly (see README, "Fault testing").
func faultSeeds(t *testing.T) []uint64 {
	t.Helper()
	var seeds []uint64
	if env := os.Getenv("FAULT_SEEDS"); env != "" {
		for _, f := range strings.Split(env, ",") {
			s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("FAULT_SEEDS %q: %v", env, err)
			}
			seeds = append(seeds, s)
		}
	} else {
		seeds = []uint64{1}
	}
	if os.Getenv("FAULT_RANDOM_SEED") == "1" {
		s := uint64(time.Now().UnixNano())
		seeds = append(seeds, s)
	}
	return seeds
}

// forEachFaultSeed runs the scenario once per seed as a subtest. Every
// fault decision in the run derives from the seed, so a failure's log
// line is a complete reproduction recipe.
func forEachFaultSeed(t *testing.T, run func(t *testing.T, seed uint64)) {
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("replay exactly: FAULT_SEEDS=%d go test -race ./internal/cluster/ -run '%s'",
						seed, t.Name())
				}
			})
			run(t, seed)
		})
	}
}

// faultWorkload drives single-writer-per-key client traffic while a
// scenario injects faults. Key i belongs to worker i%workers, so each
// key's check.KeyModel oracle is exact: acknowledged state plus the
// ordered in-doubt tail. A per-worker check.VersionWatch additionally
// asserts version monotonicity across migrations and recoveries.
type faultWorkload struct {
	t       *testing.T
	c       *Cluster
	table   wire.TableID
	keys    [][]byte
	models  []*check.KeyModel
	workers int
	seed    uint64
	// clients holds one client per worker, attached before any scenario
	// sets a fault plan, so a dropped map fetch cannot fail the attach.
	clients []*client.Client

	// Op mix out of 10: draws below deleteCut delete, below writeCut
	// write, the rest read. Defaults to 1 delete / 3 writes / 6 reads.
	deleteCut int
	writeCut  int

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newFaultWorkload bulk-loads n keys and seeds their models. The workload
// is stopped automatically at test cleanup (before the cluster closes),
// but scenarios normally call stopWait explicitly before their audit.
func newFaultWorkload(t *testing.T, c *Cluster, table wire.TableID, n, workers int, seed uint64) *faultWorkload {
	t.Helper()
	keys := make([][]byte, n)
	values := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("fk-%06d", i))
		values[i] = []byte(fmt.Sprintf("seed-%06d", i))
	}
	if err := c.BulkLoad(context.Background(), table, keys, values); err != nil {
		t.Fatal(err)
	}
	wl := &faultWorkload{
		t: t, c: c, table: table, keys: keys,
		models:  make([]*check.KeyModel, n),
		workers: workers, seed: seed,
		deleteCut: 1, writeCut: 4,
		stop: make(chan struct{}),
	}
	for i := range wl.models {
		wl.models[i] = check.NewKeyModel(values[i])
	}
	for w := 0; w < workers; w++ {
		wl.clients = append(wl.clients, c.MustClient())
	}
	t.Cleanup(wl.stopWait)
	return wl
}

// start launches the worker goroutines.
func (wl *faultWorkload) start() {
	for w := 0; w < wl.workers; w++ {
		wl.wg.Add(1)
		go wl.run(w)
	}
}

// stopWait stops the workers and waits for them to exit.
func (wl *faultWorkload) stopWait() {
	wl.stopOnce.Do(func() { close(wl.stop) })
	wl.wg.Wait()
}

func (wl *faultWorkload) run(w int) {
	defer wl.wg.Done()
	cl := wl.clients[w]
	watch := check.NewVersionWatch()
	rng := rand.New(rand.NewSource(int64(wl.seed)<<8 | int64(w)))
	perWorker := len(wl.keys) / wl.workers
	// FAULT_TRACE=fk-000103[,...] logs every op on the named keys with
	// timestamps — the first tool to reach for when an audit fails.
	traceKeys := os.Getenv("FAULT_TRACE")
	for op := 0; ; op++ {
		select {
		case <-wl.stop:
			return
		default:
		}
		i := rng.Intn(perWorker)*wl.workers + w
		key, m := wl.keys[i], wl.models[i]
		trace := traceKeys != "" && strings.Contains(traceKeys, string(key))
		switch draw := rng.Intn(10); {
		case draw < wl.deleteCut: // delete
			err := cl.Delete(context.Background(), wl.table, key)
			if trace {
				wl.t.Logf("TRACE %s delete -> %v at %v", key, err, time.Now().Format("15:04:05.000000"))
			}
			switch {
			case err == nil:
				m.AckDelete()
			case err == client.ErrNoSuchKey:
				// A definitive server answer: the key is absent right now.
				if oerr := m.Observe(nil, true); oerr != nil {
					wl.t.Errorf("delete %s: %v", key, oerr)
					return
				}
				m.AckDelete()
			default:
				// A fault ate the RPC somewhere: the delete is in doubt.
				m.FailDelete()
			}
		case draw < wl.writeCut: // write
			val := []byte(fmt.Sprintf("s%d-w%d-op%d", wl.seed, w, op))
			err := cl.Write(context.Background(), wl.table, key, val)
			if trace {
				wl.t.Logf("TRACE %s write %s -> %v at %v", key, val, err, time.Now().Format("15:04:05.000000"))
			}
			if err == nil {
				m.AckWrite(val)
			} else {
				m.FailWrite(val)
			}
		default: // versioned read, checked against the oracle
			v, ver, err := cl.ReadVersioned(context.Background(), wl.table, key)
			if trace {
				wl.t.Logf("TRACE %s read -> %q ver=%d err=%v at %v", key, v, ver, err, time.Now().Format("15:04:05.000000"))
			}
			switch {
			case err == client.ErrNoSuchKey:
				if oerr := m.Observe(nil, true); oerr != nil {
					wl.t.Errorf("read %s: %v", key, oerr)
					return
				}
			case err != nil:
				// Transport fault: a read has no effect, nothing to record.
			default:
				if oerr := m.Observe(v, false); oerr != nil {
					wl.t.Errorf("read %s: %v", key, oerr)
					return
				}
				if oerr := watch.Observe(key, ver); oerr != nil {
					wl.t.Errorf("worker %d: %v", w, oerr)
					return
				}
			}
		}
	}
}

// audit verifies every key against its model after the scenario has
// converged. Transient read errors are retried a few times (stragglers of
// a just-finished recovery); persistent ones are real failures.
func (wl *faultWorkload) audit(cl *client.Client) {
	wl.t.Helper()
	if err := cl.RefreshMap(context.Background()); err != nil {
		wl.t.Fatalf("audit refresh: %v", err)
	}
	for i, k := range wl.keys {
		var v []byte
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			v, err = cl.Read(context.Background(), wl.table, k)
			if err == nil || err == client.ErrNoSuchKey {
				break
			}
			_ = cl.RefreshMap(context.Background())
		}
		switch {
		case err == client.ErrNoSuchKey:
			if oerr := wl.models[i].Observe(nil, true); oerr != nil {
				wl.t.Errorf("audit %s: %v", k, oerr)
			}
		case err != nil:
			wl.t.Errorf("audit %s: %v", k, err)
		default:
			if oerr := wl.models[i].Observe(v, false); oerr != nil {
				wl.t.Errorf("audit %s: %v", k, oerr)
			}
		}
	}
}

// watchOwnership polls the coordinator's tablet map and asserts ownership
// exclusivity — at most one owner for every point of hash space — at every
// observation, including mid-migration and mid-recovery. The returned stop
// function is idempotent and also registered as a cleanup.
func watchOwnership(t *testing.T, c *Cluster) (stop func()) {
	t.Helper()
	cl := c.MustClient()
	done := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			reply, err := cl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
			if err != nil {
				continue // faults may eat the poll; the next one will land
			}
			tm, ok := reply.(*wire.GetTabletMapResponse)
			if !ok || tm.Status != wire.StatusOK {
				continue
			}
			if cerr := check.CheckOwnershipExclusive(tm.Tablets); cerr != nil {
				t.Errorf("ownership violation: %v", cerr)
				return
			}
		}
	}()
	stop = func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// convergeMigration waits for a migration and, if a fault killed it,
// applies the operator remedy the lineage design prescribes (§3.4): the
// target holds a tablet it can never finish pulling, so the operator
// declares the target dead and recovery reverts ownership without losing
// the writes the target acknowledged (they are on its backups). Injected
// faults are cleared first so recovery itself runs clean.
func convergeMigration(t *testing.T, c *Cluster, cl *client.Client, net *faultinject.Network, g *core.Migration, target int) {
	t.Helper()
	res := g.Wait()
	if res.Err == nil {
		return
	}
	t.Logf("migration of %+v failed (%v); reverting via target crash + recovery", res.Range, res.Err)
	if net != nil {
		net.ClearPlan()
	}
	c.Crash(target)
	if err := cl.ReportCrash(context.Background(), c.Server(target).ID()); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()
}
