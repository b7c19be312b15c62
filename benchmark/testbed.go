package main

import (
	"context"
	"fmt"

	"rocksteady/internal/client"
	"rocksteady/internal/cluster"
	"rocksteady/internal/coordinator"
	"rocksteady/internal/core"
	"rocksteady/internal/server"
	"rocksteady/internal/transport"
	"rocksteady/internal/wire"
)

// workersPerServer matches the box the benchmark is sized for (2 cores).
const workersPerServer = 2

// tableCapacity is the per-server hash-table size hint: room for twice an
// even share of the records, because migrations and recovery concentrate
// data on fewer servers than it was loaded over.
func tableCapacity(records, servers int) int { return 4 * records / servers }

// testbed is one running cluster, wired either on the in-process fabric
// (cluster.New) or over loopback TCP the way cmd/rocksteady-server is. The
// run drives both through the same handles.
type testbed struct {
	coord    *coordinator.Coordinator
	servers  []*server.Server
	managers []*core.Manager
	ctl      *client.Client // control-plane client (tables, migrations, crash reports)

	attach   func() (*client.Client, error) // one more client connection
	kill     func(i int)                    // crash server i abruptly
	shutdown func()
}

func (tb *testbed) serverIDs() []wire.ServerID {
	ids := make([]wire.ServerID, len(tb.servers))
	for i, s := range tb.servers {
		ids[i] = s.ID()
	}
	return ids
}

// newFabricTestbed builds the cluster on the zero-copy in-process fabric.
func newFabricTestbed(servers, rf, records int) (*testbed, error) {
	c := cluster.New(cluster.Config{
		Servers:           servers,
		Workers:           workersPerServer,
		HashTableCapacity: tableCapacity(records, servers),
		ReplicationFactor: rf,
		Quiet:             true,
	})
	ctl, err := c.NewClient()
	if err != nil {
		c.Close()
		return nil, err
	}
	return &testbed{
		coord:    c.Coordinator,
		servers:  c.Servers,
		managers: c.Managers,
		ctl:      ctl,
		attach:   c.NewClient,
		kill:     c.Crash,
		shutdown: c.Close,
	}, nil
}

// newTCPTestbed wires coordinator, servers and clients over loopback TCP:
// the only configuration in which wire marshalling and TCP framing do work.
func newTCPTestbed(ctx context.Context, servers, rf, records int) (*testbed, error) {
	var eps []*transport.TCP
	closeAll := func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}
	listen := func(id wire.ServerID) (*transport.TCP, error) {
		ep, err := transport.NewTCP(transport.TCPConfig{ID: id, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		return ep, nil
	}
	coordEP, err := listen(wire.CoordinatorID)
	if err != nil {
		return nil, err
	}
	ids := make([]wire.ServerID, servers)
	serverEPs := make([]*transport.TCP, servers)
	peers := map[wire.ServerID]string{wire.CoordinatorID: coordEP.Addr()}
	for i := range ids {
		ids[i] = cluster.FirstServerID + wire.ServerID(i)
		if serverEPs[i], err = listen(ids[i]); err != nil {
			closeAll()
			return nil, err
		}
		peers[ids[i]] = serverEPs[i].Addr()
	}
	// Everyone listened on :0; now teach each endpoint the others. Clients
	// are not in the map: servers reply over the connection a client dialed.
	for _, ep := range eps {
		ep.SetPeers(peers)
	}

	tb := &testbed{coord: coordinator.New(transport.NewNode(coordEP))}
	tb.coord.Logf = func(string, ...any) {}
	for i, id := range ids {
		var backups []wire.ServerID
		for _, b := range ids {
			if b != id && rf > 0 {
				backups = append(backups, b)
			}
		}
		srv := server.New(server.Config{
			ID:                id,
			Workers:           workersPerServer,
			HashTableCapacity: tableCapacity(records, servers),
			Backups:           backups,
			ReplicationFactor: rf,
		}, serverEPs[i])
		tb.servers = append(tb.servers, srv)
		tb.managers = append(tb.managers, core.NewManager(srv, core.Options{}))
	}

	var clients []*client.Client
	nextClient := cluster.FirstServerID + 1000
	tb.attach = func() (*client.Client, error) {
		ep, err := transport.NewTCP(transport.TCPConfig{ID: nextClient, ListenAddr: "127.0.0.1:0", Peers: peers})
		if err != nil {
			return nil, err
		}
		nextClient++
		cl, err := client.New(ctx, ep)
		if err != nil {
			_ = ep.Close()
			return nil, err
		}
		clients = append(clients, cl)
		return cl, nil
	}
	tb.kill = func(i int) {
		_ = serverEPs[i].Close()
		tb.servers[i].Crash()
	}
	tb.shutdown = func() {
		tb.coord.WaitForRecoveries()
		for _, cl := range clients {
			cl.Close()
		}
		for _, s := range tb.servers {
			s.Close()
		}
		tb.coord.Close()
	}

	if tb.ctl, err = tb.attach(); err != nil {
		tb.shutdown()
		return nil, err
	}
	for _, id := range ids {
		if _, err := tb.ctl.Node().Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.EnlistServerRequest{Server: id}); err != nil {
			tb.shutdown()
			return nil, fmt.Errorf("enlist %v: %w", id, err)
		}
	}
	return tb, nil
}

// tabletMap fetches the coordinator's current tablet map.
func (tb *testbed) tabletMap(ctx context.Context) ([]wire.Tablet, error) {
	reply, err := tb.ctl.Node().Call(ctx, wire.CoordinatorID, wire.PriorityForeground, &wire.GetTabletMapRequest{})
	if err != nil {
		return nil, fmt.Errorf("tablet map: %w", err)
	}
	resp, ok := reply.(*wire.GetTabletMapResponse)
	if !ok || resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("tablet map: unexpected reply %T", reply)
	}
	return resp.Tablets, nil
}

// owners returns a lookup from key hash to the server that owns it in the
// coordinator's current map (nil for a hash no tablet covers).
func (tb *testbed) owners(ctx context.Context, table wire.TableID) (func(hash uint64) *server.Server, error) {
	tablets, err := tb.tabletMap(ctx)
	if err != nil {
		return nil, err
	}
	byID := make(map[wire.ServerID]*server.Server, len(tb.servers))
	for _, s := range tb.servers {
		byID[s.ID()] = s
	}
	return func(hash uint64) *server.Server {
		for _, t := range tablets {
			if t.Table == table && t.Range.Contains(hash) {
				return byID[t.Master]
			}
		}
		return nil
	}, nil
}

// load creates the table over the first `spread` servers and stores every
// record of the dataset straight through each owner's log, hash table and
// replicator, bypassing the RPC path (the paper pre-loads the same way).
func (tb *testbed) load(ctx context.Context, d *dataset, spread int) (wire.TableID, error) {
	table, err := tb.ctl.CreateTable(ctx, "bench", tb.serverIDs()[:spread]...)
	if err != nil {
		return 0, fmt.Errorf("create table: %w", err)
	}
	ownerOf, err := tb.owners(ctx, table)
	if err != nil {
		return 0, err
	}
	for item := uint64(0); item < uint64(d.n); item++ {
		key := d.key(item)
		hash := wire.HashKey(key)
		srv := ownerOf(hash)
		if srv == nil {
			return 0, fmt.Errorf("load: no owner for item %d", item)
		}
		ref, _, err := srv.Log().AppendObject(table, key, d.value(item, 0))
		if err != nil {
			return 0, fmt.Errorf("load item %d: %w", item, err)
		}
		if prev, existed := srv.HashTable().Put(table, key, hash, ref); existed {
			srv.Log().MarkDead(prev)
		}
	}
	for _, s := range tb.servers {
		if err := s.Replicator().Sync(ctx); err != nil {
			return 0, fmt.Errorf("load: replicate %v: %w", s.ID(), err)
		}
	}
	return table, nil
}

// migrate starts a Rocksteady migration of (table, rng) from server src to
// server dst and returns the target-side migration once ownership flipped.
func (tb *testbed) migrate(ctx context.Context, table wire.TableID, rng wire.HashRange, src, dst int) (*core.Migration, error) {
	if err := tb.ctl.MigrateTablet(ctx, table, rng, tb.servers[src].ID(), tb.servers[dst].ID()); err != nil {
		return nil, fmt.Errorf("migrate %v %d→%d: %w", rng, src, dst, err)
	}
	g := tb.managers[dst].Migration(table, rng)
	if g == nil {
		return nil, fmt.Errorf("migrate %v %d→%d: not registered at the target", rng, src, dst)
	}
	return g, nil
}
