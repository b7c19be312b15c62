package cluster

// Chaos suite: random client operations race with migrations while
// check.KeyModel oracles track every acknowledged effect per key. Each
// table case pairs a workload mix with a fault plan; every case runs once
// per fault seed (forEachFaultSeed), so a failing combination replays
// exactly from its logged seed. This is the system-wide
// linearizability-per-key check that all of Rocksteady's version
// machinery exists to preserve.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"rocksteady/internal/client"
	"rocksteady/internal/faultinject"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// chaosBase is the shared cluster shape for the chaos and stress tests.
// Tests must not use it directly: Clone() hands each subtest an isolated
// deep copy, so one case mutating its config (fault network, timeouts)
// can never leak into a sibling running from the same table.
var chaosBase = Config{
	Servers:           3,
	ReplicationFactor: 2,
	Fabric:            transport.FabricConfig{BandwidthBytesPerSec: 16 << 20},
}

func TestChaosMigrationsVsOperations(t *testing.T) {
	// Recovery fetches stay exempt (see faultPlan); replication batches
	// are faulted like any other RPC, and the replicator's retry and
	// whole-segment failover mask them.
	exempt := []wire.Op{wire.OpGetBackupSegments}
	cases := []struct {
		name       string
		plan       *faultinject.Plan
		deleteCut  int // op mix: draws in [0,deleteCut) delete...
		writeCut   int // ...in [deleteCut,writeCut) write, rest read
		migrations int
	}{
		{name: "baseline", plan: nil, deleteCut: 2, writeCut: 5, migrations: 6},
		{name: "drops", plan: &faultinject.Plan{DropProb: 0.02, ExemptOps: exempt},
			deleteCut: 1, writeCut: 4, migrations: 4},
		{name: "dup-reorder", plan: &faultinject.Plan{DupProb: 0.05, ReorderProb: 0.05, ExemptOps: exempt},
			deleteCut: 1, writeCut: 4, migrations: 4},
		{name: "delays", plan: &faultinject.Plan{DelayProb: 0.2, MaxDelay: time.Millisecond, ExemptOps: exempt},
			deleteCut: 3, writeCut: 6, migrations: 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			forEachFaultSeed(t, func(t *testing.T, seed uint64) {
				cfg := chaosBase.Clone()
				var net *faultinject.Network
				if tc.plan != nil {
					net = faultinject.NewNetwork(seed)
					cfg.Faults = net
				}
				c := testCluster(t, cfg)
				cl := c.MustClient()
				table, err := cl.CreateTable(context.Background(), "chaos", c.Server(0).ID())
				if err != nil {
					t.Fatal(err)
				}
				wl := newFaultWorkload(t, c, table, 900, 3, seed)
				wl.deleteCut, wl.writeCut = tc.deleteCut, tc.writeCut
				stopWatch := watchOwnership(t, c)
				// Attached before the plan is armed: a dropped map fetch
				// would fail the attach itself.
				mcl := c.MustClient()
				wl.start()
				if net != nil {
					net.SetPlan(tc.plan)
				}

				migrated := runChaosMigrations(t, c, mcl, net, table, tc.migrations, seed)

				if net != nil {
					net.ClearPlan()
				}
				wl.stopWait()
				stopWatch()
				wl.audit(cl)

				if tc.plan == nil {
					// Without faults every migration must finish, every slice
					// must have left server 0, and the data must sit exactly
					// on the servers the map names as owners. (The targets are
					// random, so all slices may land on one server.)
					if migrated != tc.migrations {
						t.Errorf("baseline completed %d/%d migrations", migrated, tc.migrations)
					}
					reply, err := cl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
					if err != nil {
						t.Fatal(err)
					}
					owners := make(map[wire.ServerID]bool)
					for _, tb := range reply.(*wire.GetTabletMapResponse).Tablets {
						if tb.Table == table {
							owners[tb.Master] = true
						}
					}
					if owners[c.Server(0).ID()] {
						t.Error("chaos migrations left data owned by the initial server")
					}
					for i := 0; i < cfg.Servers; i++ {
						n, _ := c.Server(i).HashTable().CountRange(table, wire.FullRange())
						if id := c.Server(i).ID(); (n > 0) != owners[id] {
							t.Errorf("server %v holds %d records, owns data: %v", id, n, owners[id])
						}
					}
				}
			})
		})
	}
}

// runChaosMigrations migrates successive slices of the hash space between
// randomly chosen servers, discovering the current owner before each move.
// Under an active fault plan a migration may be killed by injected faults;
// the operator remedy (convergeMigration) is applied and the chaos stops
// there — the workload and audit still judge the aftermath. Returns the
// number of migrations that completed cleanly.
func runChaosMigrations(t *testing.T, c *Cluster, mcl *client.Client, net *faultinject.Network, table wire.TableID, migrations int, seed uint64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5ca1ab1e))
	parts := wire.FullRange().Split(migrations)
	done := 0
	for mi, p := range parts {
		ownerIdx := -1
		var reply wire.Payload
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			reply, err = mcl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
			if err == nil {
				break
			}
		}
		if err != nil {
			if net != nil {
				t.Logf("chaos migration %d: map fetch eaten (%v); stopping chaos", mi, err)
				return done
			}
			t.Errorf("map: %v", err)
			return done
		}
		for _, tb := range reply.(*wire.GetTabletMapResponse).Tablets {
			if tb.Table == table && tb.Range.Contains(p.Start) {
				for i := 0; i < len(c.Servers); i++ {
					if c.Server(i).ID() == tb.Master {
						ownerIdx = i
					}
				}
			}
		}
		if ownerIdx < 0 {
			t.Errorf("chaos migration %d: no owner found", mi)
			return done
		}
		target := (ownerIdx + 1 + rng.Intn(len(c.Servers)-1)) % len(c.Servers)
		g, err := c.Migrate(context.Background(), table, p, ownerIdx, target)
		if err != nil {
			if se, ok := err.(wire.StatusError); ok && se.Status == wire.StatusMigrationInProgress {
				continue
			}
			if net != nil {
				t.Logf("chaos migration %d: start eaten (%v); stopping chaos", mi, err)
				return done
			}
			t.Errorf("chaos migration %d: %v", mi, err)
			return done
		}
		if res := g.Wait(); res.Err != nil {
			if net == nil {
				t.Errorf("chaos migration %d: %v", mi, res.Err)
				return done
			}
			// A fault killed the pull mid-flight: apply the §3.4 remedy and
			// stop migrating — the cluster is now down a server.
			convergeMigration(t, c, c.firstClient(), net, g, target)
			return done
		}
		done++
	}
	return done
}
