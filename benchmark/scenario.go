package main

import "rocksteady/internal/wire"

// move migrates part `part` of `of` equal parts of the hash space from
// server src to server dst.
type move struct{ part, of, src, dst int }

func (m move) hashRange() wire.HashRange { return wire.FullRange().Split(m.of)[m.part] }

// scenario configures one workload. Every workload runs the same life of a
// cluster (see round) so that every end-to-end metric has a reading on
// every workload; what differs is the cluster, the data placement, the
// request mix and where the measured seconds go.
type scenario struct {
	name string

	tcp     bool // loopback TCP instead of the in-process fabric
	servers int
	rf      int
	records int // per round
	spread  int // servers the table is created over (1 = everything on server 0)

	readFraction float64
	rounds       int     // fresh clusters per run; set-up time is the median over them
	serveShare   float64 // share of the measured seconds in the closed-loop serve act
	moves        []move  // migrations of the open-loop act, in order
	victim       int     // server crashed after the migrations
}

// thereAndBack moves server 0's third of the hash space to server 1 and
// back: two migrations per round that leave the layout as loaded.
var thereAndBack = []move{{0, 3, 0, 1}, {0, 3, 1, 0}}

// scaleOut empties server 0 in four migrations of a quarter of the hash
// space each, alternating between servers 1 and 2.
var scaleOut = []move{{0, 4, 0, 1}, {1, 4, 0, 2}, {2, 4, 0, 1}, {3, 4, 0, 2}}

// pileUp moves server 0's quarter to server 1, back, and over again: three
// migrations, after which the server crashed next holds half the table.
var pileUp = []move{{0, 4, 0, 1}, {0, 4, 1, 0}, {0, 4, 0, 1}}

var scenarios = []scenario{
	{
		name: "ycsb_b_tcp",
		tcp:  true, servers: 3, rf: 1, records: 600_000, spread: 3,
		readFraction: 0.95, rounds: 3, serveShare: 0.7,
		moves: thereAndBack, victim: 2,
	},
	{
		name:    "ycsb_a_repl",
		servers: 3, rf: 2, records: 600_000, spread: 3,
		readFraction: 0.5, rounds: 3, serveShare: 0.7,
		moves: thereAndBack, victim: 2,
	},
	{
		name:    "migrate_loaded",
		servers: 3, rf: 1, records: 1_200_000, spread: 1,
		readFraction: 0.95, rounds: 2, serveShare: 0.3,
		moves: scaleOut, victim: 2,
	},
	{
		name:    "crash_recovery",
		servers: 4, rf: 2, records: 1_200_000, spread: 4,
		readFraction: 0.95, rounds: 2, serveShare: 0.5,
		moves: pileUp, victim: 1,
	},
}

func scenarioByName(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, true
		}
	}
	return scenario{}, false
}
