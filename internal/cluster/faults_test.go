package cluster

// faults_test.go is the deterministic fault-tolerance scenario suite: one
// test per failure mode of the paper's §4 fault-tolerance design, each
// driven by the seeded fault-injection network (internal/faultinject) so
// a failing run replays exactly from its printed seed. Every scenario
// asserts the machine-checkable invariants from faultinject/check: no
// acknowledged write lost, no deleted record resurrected, at most one
// owner per tablet at every observed instant, per-key versions monotone.
//
// DESIGN.md §5 maps each §4 claim to its scenario here.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rocksteady/internal/coordinator"
	"rocksteady/internal/core"
	"rocksteady/internal/faultinject"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// faultPlan is the standard message-fault mix scenarios arm: mild drops,
// frequent small delays, duplicated responses, adjacent reorders. Every
// replication batch — group commit and side-log re-replication alike —
// is faulted; the replicator's retry and failover must mask it. Only
// recovery fetches are exempt, so an injected fault is never mistakable
// for genuine data loss and each scenario asserts about exactly one
// failure mode.
func faultPlan() *faultinject.Plan {
	return &faultinject.Plan{
		DropProb:    0.01,
		DelayProb:   0.10,
		DupProb:     0.02,
		ReorderProb: 0.02,
		ExemptOps:   []wire.Op{wire.OpGetBackupSegments},
	}
}

// TestFaultScenarioSourceCrashMidMigration is §4's headline failure mode:
// the migration source crashes mid-pull, with message faults active.
// Ownership already moved to the target (immediate transfer), whose
// lineage dependency makes the coordinator recover the source's log such
// that every record — including writes the target acknowledged during the
// migration — survives exactly once.
func TestFaultScenarioSourceCrashMidMigration(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 4, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1200, 3, seed)
		stopWatch := watchOwnership(t, c)

		half := wire.FullRange().Split(2)[1]
		g, err := c.Migrate(context.Background(), table, half, 0, 1)
		if err != nil {
			t.Fatal(err)
		}

		// Crash the source in "message time": after 500 more messages have
		// crossed the fault layer — a point that lands mid-pull for every
		// seed because the workload keeps the network busy.
		crashed := make(chan struct{})
		net.AtMessage(net.MessageCount()+500, func() { close(crashed) })
		net.SetPlan(faultPlan())
		wl.start()

		<-crashed
		net.ClearPlan() // recovery must run clean: faults stay scoped to the migration window
		c.Crash(0)
		if err := cl.ReportCrash(context.Background(), c.Server(0).ID()); err != nil {
			t.Fatal(err)
		}
		c.Coordinator.WaitForRecoveries()
		g.Wait() // terminates either way: completed, or cancelled by recovery

		wl.stopWait()
		stopWatch()
		wl.audit(cl)
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("dangling lineage dependencies: %+v", deps)
		}
	})
}

// TestFaultScenarioTargetCrashMidMigration crashes the migration target
// instead: the lineage record lets the coordinator revert ownership to
// the source side, replaying the target's log (which holds writes it
// acknowledged as the new owner) from its backups. Afterwards no tablet
// may still name the dead target.
func TestFaultScenarioTargetCrashMidMigration(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 4, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1200, 3, seed)
		stopWatch := watchOwnership(t, c)

		half := wire.FullRange().Split(2)[1]
		g, err := c.Migrate(context.Background(), table, half, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		crashed := make(chan struct{})
		net.AtMessage(net.MessageCount()+500, func() { close(crashed) })
		net.SetPlan(faultPlan())
		wl.start()

		<-crashed
		net.ClearPlan()
		dead := c.Server(1).ID()
		c.Crash(1)
		if err := cl.ReportCrash(context.Background(), dead); err != nil {
			t.Fatal(err)
		}
		c.Coordinator.WaitForRecoveries()
		g.Wait()

		wl.stopWait()
		stopWatch()
		wl.audit(cl)
		reply, err := cl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range reply.(*wire.GetTabletMapResponse).Tablets {
			if tb.Master == dead {
				t.Errorf("tablet %+v still owned by dead target %v", tb.Range, dead)
			}
		}
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("dangling lineage dependencies: %+v", deps)
		}
	})
}

// TestFaultScenarioBackupFailureDuringRereplication kills a pure backup
// while a migration is re-replicating through it: the replicator must
// fail over by re-shipping whole segments to surviving backups (a delta
// would leave a gap) and the migration must still complete. Crashing the
// target afterwards proves durability really survived the failover — the
// recovered state passes the full audit.
func TestFaultScenarioBackupFailureDuringRereplication(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 4, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 2 << 20},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1000, 3, seed)
		stopWatch := watchOwnership(t, c)

		g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		wl.start()

		// Server 3 owns no tablets: a pure backup. Killing it mid-migration
		// hits the replication path of every live master. (Deliberately not
		// the source — with four servers and RF2, killing a backup *and* the
		// source can genuinely lose the segments placed on exactly that
		// pair, which no protocol survives.)
		c.Crash(3)
		if err := cl.ReportCrash(context.Background(), c.Server(3).ID()); err != nil {
			t.Fatal(err)
		}
		c.Coordinator.WaitForRecoveries()

		if res := g.Wait(); res.Err != nil {
			t.Fatalf("migration must survive a backup death via whole-segment failover: %v", res.Err)
		}

		// Prove the failover preserved durability: crash the target and
		// recover everything — side logs included — from what remains.
		c.Crash(1)
		if err := cl.ReportCrash(context.Background(), c.Server(1).ID()); err != nil {
			t.Fatal(err)
		}
		c.Coordinator.WaitForRecoveries()

		wl.stopWait()
		stopWatch()
		wl.audit(cl)
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("dangling lineage dependencies: %+v", deps)
		}
	})
}

// TestFaultScenarioCoordinatorChurnDuringPulls churns the coordinator's
// view — tablet splits, table creates, a second concurrent migration —
// while message faults hit the coordinator's own links, and polls the map
// continuously: at no observed instant may two tablets of a table
// overlap, and the workload's oracles must hold through the churn.
func TestFaultScenarioCoordinatorChurnDuringPulls(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 3, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1200, 3, seed)
		stopWatch := watchOwnership(t, c)

		quarters := wire.FullRange().Split(4)
		g1, err := c.Migrate(context.Background(), table, quarters[1], 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Attached before the plan is armed: a dropped map fetch would
		// fail the attach itself.
		ccl := c.MustClient()
		net.SetPlan(faultPlan())
		wl.start()

		// View churn while pulls run. Individual churn RPCs may be eaten by
		// the fault plan — that is the point; the invariant poller and the
		// final audit judge the outcome, not these statuses.
		for i := 0; i < 6; i++ {
			splitAt := quarters[0].Start + uint64(i+1)*(quarters[0].End-quarters[0].Start)/8
			_, _ = ccl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground,
				&wire.SplitTabletRequest{Table: table, SplitAt: splitAt})
			_, _ = ccl.CreateTable(context.Background(), names(seed, i), c.Server(i%3).ID())
		}
		g2, err := c.Migrate(context.Background(), table, quarters[3], 0, 2)
		if err != nil && g2 == nil {
			// The MigrateTablet RPC was eaten before the target registered
			// anything: nothing started, nothing to converge.
			t.Logf("second migration never started: %v", err)
		}

		convergeMigration(t, c, cl, net, g1, 1)
		if g2 != nil {
			convergeMigration(t, c, cl, net, g2, 2)
		}
		net.ClearPlan()

		wl.stopWait()
		stopWatch()
		wl.audit(cl)
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("dangling lineage dependencies: %+v", deps)
		}
	})
}

func names(seed uint64, i int) string {
	return "churn-" + string(rune('a'+int(seed%26))) + "-" + string(rune('0'+i))
}

// TestFaultScenarioPartitionHealDuringPriorityPulls severs the
// target→source direction (Pulls and PriorityPulls black-hole; everything
// else flows) for longer than one RPC timeout, then heals. The pull retry
// budget must ride out the outage and finish the migration; if a seed's
// timing lands the outage beyond the budget, the operator remedy converges
// the cluster instead. Either way the audit must pass.
func TestFaultScenarioPartitionHealDuringPriorityPulls(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 3, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
			Faults:     net,
			RPCTimeout: 400 * time.Millisecond,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1200, 3, seed)
		stopWatch := watchOwnership(t, c)

		g, err := c.Migrate(context.Background(), table, wire.FullRange(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		wl.start() // reads of unmigrated keys drive PriorityPulls target→source

		src, dst := c.Server(0).ID(), c.Server(1).ID()
		net.Block(dst, src, true)
		// Hold the outage across one full RPC timeout — in-flight Pulls and
		// PriorityPulls time out and retry straight into the partition —
		// then heal inside the retry budget (3 attempts × 400ms).
		time.Sleep(600 * time.Millisecond)
		net.Block(dst, src, false)

		if res := g.Wait(); res.Err != nil {
			t.Logf("migration did not survive the partition (%v); converging", res.Err)
			c.Crash(1)
			if err := cl.ReportCrash(context.Background(), dst); err != nil {
				t.Fatal(err)
			}
			c.Coordinator.WaitForRecoveries()
		}

		wl.stopWait()
		stopWatch()
		wl.audit(cl)
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("dangling lineage dependencies: %+v", deps)
		}
	})
}

// TestFaultScenarioPrologueResponseLoss replays, deterministically, the
// failure mode behind chaos seed 7: the source processes PrepareMigration
// but every response back to the target is lost. The source flips its
// tablet to MigratingOut and refuses clients with WrongServer, yet
// ownership never transfers at the coordinator — without an abort path the
// range is owned by the map's master and served by nobody, forever. The
// target must give up on the prologue, send AbortMigration (which still
// reaches the source — only the reverse direction is blocked), and leave
// the source serving as if the migration had never been attempted.
func TestFaultScenarioPrologueResponseLoss(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 3, ReplicationFactor: 2,
			Faults:     net,
			RPCTimeout: 250 * time.Millisecond,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		keys, values := loadN(t, c, table, 400)

		src, dst := c.Server(0).ID(), c.Server(1).ID()
		net.Block(src, dst, true) // the source's responses never reach the target
		g, err := c.Migrate(context.Background(), table, wire.FullRange().Split(2)[1], 0, 1)
		if err == nil {
			// The client's MigrateTablet RPC can time out before begin()
			// resolves, handing back a live handle; it must still fail.
			if res := g.Wait(); res.Err == nil {
				t.Fatal("migration succeeded through a blocked prologue")
			}
		}
		net.Block(src, dst, false)

		// The abort must have un-prepped the source: every key readable at
		// its pre-migration owner, and writes land — no range in limbo.
		for i, k := range keys {
			v, err := cl.Read(context.Background(), table, k)
			if err != nil || string(v) != string(values[i]) {
				t.Fatalf("key %s after aborted prologue: %q %v", k, v, err)
			}
		}
		if err := cl.Write(context.Background(), table, keys[len(keys)-1], []byte("post-abort")); err != nil {
			t.Fatalf("write after aborted prologue: %v", err)
		}
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("aborted migration left lineage dependencies: %+v", deps)
		}
	})
}

// TestFaultScenarioCrashRestartRejoin exercises the crash/restart hook:
// a crashed-and-recovered server restarts as a fresh, empty process at
// the same address, re-enlists, and serves as a migration target — the
// coordinator must treat it as new capacity, not a ghost of its old self.
func TestFaultScenarioCrashRestartRejoin(t *testing.T) {
	c := testCluster(t, Config{Servers: 3, ReplicationFactor: 2})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 800)

	// Server 2 owns nothing (the table lives on 0): a pure backup.
	c.Crash(2)
	if err := cl.ReportCrash(context.Background(), c.Server(2).ID()); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	// The reborn server must be usable as a migration target immediately.
	half := wire.FullRange().Split(2)[1]
	g, err := c.Migrate(context.Background(), table, half, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Wait(); res.Err != nil {
		t.Fatalf("migration onto restarted server: %v", res.Err)
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || string(v) != string(values[i]) {
			t.Fatalf("key %s after restart+migration: %q %v", k, v, err)
		}
	}
	if n, _ := c.Server(2).HashTable().CountRange(table, half); n == 0 {
		t.Error("restarted server holds nothing after migrating onto it")
	}
}

// TestFaultScenarioRecoveryInstallDropped crashes a master that owns
// three tablets (two splits) in a cluster with two live recovery masters,
// which install their tablets concurrently, and loses the first
// TakeTablets request on the way. The coordinator's retry must cover the
// loss: recovery finishes, every tablet lands on a live master, both
// masters take part, and every key reads back.
func TestFaultScenarioRecoveryInstallDropped(t *testing.T) {
	net := faultinject.NewNetwork(1)
	c := testCluster(t, Config{
		Servers: 3, ReplicationFactor: 2,
		Faults:     net,
		RPCTimeout: 500 * time.Millisecond,
	})
	cl := c.MustClient()
	table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	keys, values := loadN(t, c, table, 900)
	for _, r := range wire.FullRange().Split(3)[1:] {
		reply, err := cl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground,
			&wire.SplitTabletRequest{Table: table, SplitAt: r.Start})
		if err != nil {
			t.Fatal(err)
		}
		if resp := reply.(*wire.SplitTabletResponse); resp.Status != wire.StatusOK {
			t.Fatalf("split at %#x: %v", r.Start, resp.Status)
		}
	}

	net.DropNext(wire.OpTakeTablets, 1)
	dead := c.Server(0).ID()
	c.Crash(0)
	if err := cl.ReportCrash(context.Background(), dead); err != nil {
		t.Fatal(err)
	}
	c.Coordinator.WaitForRecoveries()
	if got := net.Stats().Dropped.Load(); got != 1 {
		t.Fatalf("dropped %d messages, want the one TakeTablets", got)
	}

	reply, err := cl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
	if err != nil {
		t.Fatal(err)
	}
	masters := map[wire.ServerID]int{}
	for _, tb := range reply.(*wire.GetTabletMapResponse).Tablets {
		if tb.Table != table {
			continue
		}
		if tb.Master == dead {
			t.Fatalf("tablet %v still on the crashed master", tb.Range)
		}
		masters[tb.Master]++
	}
	if len(masters) != 2 {
		t.Fatalf("tablets per recovery master %v, want three tablets over both live masters", masters)
	}
	for i, k := range keys {
		v, err := cl.Read(context.Background(), table, k)
		if err != nil || !bytes.Equal(v, values[i]) {
			t.Fatalf("key %s after recovery: %q, %v", k, v, err)
		}
	}
}

// TestFaultScenarioClientDeadlineAbortsMigration: a MigrateTablet issued
// under a client deadline hands that deadline to the whole pull chain
// (client → target → source). With the fabric throttled so the transfer
// cannot finish in time and message faults delaying pulls, the deadline
// must abort the migration mid-transfer: Wait returns promptly with
// context.DeadlineExceeded as the recorded failure, some but not all
// records pulled, and the un-migrated half of the table still serving.
func TestFaultScenarioClientDeadlineAbortsMigration(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 2,
			// 256 KB/s: the ~128 KB half-table below needs ~500 ms of pure
			// transfer, far past the 200 ms client deadline.
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 256 << 10},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		const n = 1000
		keys := make([][]byte, n)
		values := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%06d", i))
			values[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 256)
		}
		if err := c.BulkLoad(context.Background(), table, keys, values); err != nil {
			t.Fatal(err)
		}

		// Delay-only faults: the prologue must succeed so the abort is
		// attributable to the deadline alone, not a dropped MigrateStart.
		net.SetPlan(&faultinject.Plan{DelayProb: 0.10, DupProb: 0.02})

		half := wire.FullRange().Split(2)[1]
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		g, err := c.Migrate(ctx, table, half, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res := g.Wait()
		if res.Err == nil {
			t.Fatal("migration finished despite an unmeetable deadline")
		}
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("migration failed with %v, want context.DeadlineExceeded", res.Err)
		}
		// Abort must be prompt (cancellation, not queue-drain): well under
		// the ~4 s a full throttled transfer with retries would take.
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("Wait took %v after the deadline; cancellation is not immediate", waited)
		}
		migrated := 0
		for _, k := range keys {
			if half.Contains(wire.HashKey(k)) {
				migrated++
			}
		}
		if res.RecordsPulled >= int64(migrated) {
			t.Fatalf("all %d records pulled; deadline did not abort mid-transfer", migrated)
		}
		net.ClearPlan()
		// The untouched half still serves under its original owner.
		for _, k := range keys {
			if half.Contains(wire.HashKey(k)) {
				continue
			}
			if _, err := cl.Read(context.Background(), table, k); err != nil {
				t.Fatalf("read on un-migrated half: %v", err)
			}
			break
		}
	})
}

// TestFaultScenarioShardedHeadsDeterministicTotals pins that sharding the
// source's log heads did not make migration accounting racy: for each
// fault seed, the same quiescent-source migration run twice in identical
// fresh clusters pulls exactly the same record totals, and those totals
// equal the number of keys in the migrated range — every record moved
// exactly once even though the source's appends were spread over several
// shard heads (and its epoch watermark governs the tail catch-up).
func TestFaultScenarioShardedHeadsDeterministicTotals(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		half := wire.FullRange().Split(2)[1]
		const n = 600

		runOnce := func() (core.Result, int) {
			net := faultinject.NewNetwork(seed)
			c := testCluster(t, Config{
				Servers: 3, ReplicationFactor: 2,
				Faults:     net,
				RPCTimeout: time.Second,
			})
			cl := c.MustClient()
			table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
			if err != nil {
				t.Fatal(err)
			}
			// BulkLoad fans writes over the source's dispatch workers, so
			// the loaded records interleave across all of its shard heads.
			keys, _ := loadN(t, c, table, n)
			inRange := 0
			for _, k := range keys {
				if half.Contains(wire.HashKey(k)) {
					inRange++
				}
			}
			// Delay/dup-only faults: drops could legitimately change how
			// many pull RPCs run, but never how many records arrive.
			net.SetPlan(&faultinject.Plan{DelayProb: 0.10, DupProb: 0.02})
			g, err := c.Migrate(context.Background(), table, half, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := g.Wait()
			net.ClearPlan()
			if res.Err != nil {
				t.Fatalf("migration failed: %v", res.Err)
			}
			return res, inRange
		}

		first, inRange := runOnce()
		second, _ := runOnce()

		if got := first.RecordsPulled + first.PriorityPullRecords + first.TailRecords; got != int64(inRange) {
			t.Fatalf("run 1 moved %d records (pulled=%d priority=%d tail=%d), want %d",
				got, first.RecordsPulled, first.PriorityPullRecords, first.TailRecords, inRange)
		}
		if first.RecordsPulled != second.RecordsPulled ||
			first.PriorityPullRecords != second.PriorityPullRecords ||
			first.TailRecords != second.TailRecords {
			t.Fatalf("record totals diverged across identical seeded runs:\nrun 1: pulled=%d priority=%d tail=%d\nrun 2: pulled=%d priority=%d tail=%d",
				first.RecordsPulled, first.PriorityPullRecords, first.TailRecords,
				second.RecordsPulled, second.PriorityPullRecords, second.TailRecords)
		}
	})
}

// syntheticHeat is a deterministic coordinator.HeatSource for fault
// scenarios: the configured "hot" server reports heavy, even heat on every
// tablet it owns per the authoritative map; everyone else reports idle.
// Heat *sensing* is unit-tested elsewhere (storage, server, coordinator);
// these scenarios pin down what the loop's *actions* survive, so the
// sensor must not add per-seed noise of its own.
type syntheticHeat struct {
	c  *Cluster
	mu sync.Mutex
	id wire.ServerID
}

func (s *syntheticHeat) setHot(id wire.ServerID) {
	s.mu.Lock()
	s.id = id
	s.mu.Unlock()
}

func (s *syntheticHeat) ServerHeat(_ context.Context, id wire.ServerID) (coordinator.ServerHeat, error) {
	s.mu.Lock()
	hot := s.id
	s.mu.Unlock()
	sh := coordinator.ServerHeat{Server: id, QueueWaitP99Micros: make([]uint64, wire.NumPriorities)}
	if id != hot {
		return sh, nil
	}
	for _, t := range s.c.Coordinator.TabletsSnapshot() {
		if t.Master == id {
			sh.Tablets = append(sh.Tablets, wire.TabletHeat{Table: t.Table, Range: t.Range, Heat: 100000})
		}
	}
	return sh, nil
}

// waitDepsDrain polls until every lineage dependency is resolved (the
// in-flight migration completed or recovery reverted it) or the deadline
// passes; returns the remaining deps.
func waitDepsDrain(c *Cluster, d time.Duration) []coordinator.Dependency {
	deadline := time.Now().Add(d)
	for {
		deps := c.Coordinator.Dependencies()
		if len(deps) == 0 || time.Now().After(deadline) {
			return deps
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultScenarioRebalancerSourceCrashMidSplitMigrate is the rebalancer
// retelling of the headline §4 failure: the loop (not an operator) decides
// to split the hot tablet and migrate its upper half, and then the source
// crashes mid-pull with message faults active. The split boundary is
// recovery metadata now — the coordinator must replay both halves of the
// split tablet to the right owners without losing an acknowledged write.
func TestFaultScenarioRebalancerSourceCrashMidSplitMigrate(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 4, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1200, 3, seed)
		stopWatch := watchOwnership(t, c)

		hs := &syntheticHeat{c: c, id: c.Server(0).ID()}
		reb := coordinator.NewRebalancer(c.Coordinator, coordinator.RebalancerConfig{}, hs, nil, nil)
		reb.Enable()

		// One clean tick: the whole table's load sits on server 0, so the
		// loop must split at the midpoint and start migrating the upper
		// half to an idle server.
		a := reb.Tick(context.Background())
		if a.Kind != coordinator.ActionSplit || a.Source != c.Server(0).ID() {
			t.Fatalf("tick: %+v", a)
		}
		if st := reb.Status(); st.Splits != 1 || st.Migrations != 1 {
			t.Fatalf("status after tick: %+v", st)
		}

		crashed := make(chan struct{})
		net.AtMessage(net.MessageCount()+500, func() { close(crashed) })
		net.SetPlan(faultPlan())
		wl.start()

		<-crashed
		net.ClearPlan()
		c.Crash(0)
		if err := cl.ReportCrash(context.Background(), c.Server(0).ID()); err != nil {
			t.Fatal(err)
		}
		c.Coordinator.WaitForRecoveries()
		if deps := waitDepsDrain(c, 30*time.Second); len(deps) != 0 {
			t.Fatalf("dangling lineage dependencies: %+v", deps)
		}

		wl.stopWait()
		stopWatch()
		wl.audit(cl)

		// The loop itself must still be operable after the crash: a tick
		// against the recovered map may act or not, but must not wait on a
		// migration that no longer exists.
		if a := reb.Tick(context.Background()); a.Kind == coordinator.ActionWait {
			t.Fatalf("post-recovery tick stuck waiting: %+v", a)
		}
	})
}

// TestFaultScenarioCoordinatorChurnDuringRebalance runs the control loop
// against a moving hotspot while operator churn (splits, table creation)
// and message faults hit the same coordinator — the rebalancer's actions
// must interleave with everything else without ever violating ownership
// exclusivity or losing a write. Fault-killed migrations are converged
// with the standard operator remedy afterwards.
func TestFaultScenarioCoordinatorChurnDuringRebalance(t *testing.T) {
	forEachFaultSeed(t, func(t *testing.T, seed uint64) {
		net := faultinject.NewNetwork(seed)
		c := testCluster(t, Config{
			Servers: 3, ReplicationFactor: 2,
			Fabric:     transport.FabricConfig{BandwidthBytesPerSec: 4 << 20},
			Faults:     net,
			RPCTimeout: time.Second,
		})
		cl := c.MustClient()
		table, err := cl.CreateTable(context.Background(), "t", c.Server(0).ID())
		if err != nil {
			t.Fatal(err)
		}
		wl := newFaultWorkload(t, c, table, 1200, 3, seed)
		stopWatch := watchOwnership(t, c)

		hs := &syntheticHeat{c: c, id: c.Server(0).ID()}
		reb := coordinator.NewRebalancer(c.Coordinator, coordinator.RebalancerConfig{}, hs, nil, nil)
		reb.Enable()

		// Attached before the plan is armed: a dropped map fetch would
		// fail the attach itself.
		ccl := c.MustClient()
		net.SetPlan(faultPlan())
		wl.start()

		quarter := wire.FullRange().Split(4)[0]
		for i := 0; i < 6; i++ {
			if i == 3 {
				// The hotspot moves mid-run: whichever server the loop has
				// been shedding load to becomes the one shedding it.
				hs.setHot(c.Server(1).ID())
			}
			_ = reb.Tick(context.Background())
			// Operator churn racing the loop's own map surgery. Individual
			// churn RPCs may be eaten by the fault plan — that is the
			// point; the invariant poller and final audit judge the run.
			splitAt := quarter.Start + uint64(i+1)*(quarter.End-quarter.Start)/8
			_, _ = ccl.Node().Call(context.Background(), wire.CoordinatorID, wire.PriorityForeground,
				&wire.SplitTabletRequest{Table: table, SplitAt: splitAt})
			_, _ = ccl.CreateTable(context.Background(), names(seed, i)+"-rb", c.Server(i%3).ID())
		}
		net.ClearPlan()
		reb.Disable()

		// Converge: loop-started migrations normally finish on their own;
		// one a fault killed leaves a dangling dependency, and the lineage
		// design's remedy is to declare its target dead and recover.
		for attempt := 0; attempt < 3; attempt++ {
			deps := waitDepsDrain(c, 10*time.Second)
			if len(deps) == 0 {
				break
			}
			target := deps[0].Target
			t.Logf("migration %+v stuck; reverting via target crash + recovery", deps[0])
			c.Crash(int(target - FirstServerID))
			if err := cl.ReportCrash(context.Background(), target); err != nil {
				t.Fatal(err)
			}
			c.Coordinator.WaitForRecoveries()
		}

		wl.stopWait()
		stopWatch()
		wl.audit(cl)
		if deps := c.Coordinator.Dependencies(); len(deps) != 0 {
			t.Errorf("dangling lineage dependencies: %+v", deps)
		}
	})
}
