package server

import "rocksteady/internal/wire"

// tabletMap is an immutable snapshot of the server's tablet registry,
// published RCU-style through Server.tablets (an atomic.Pointer). Readers
// load the pointer once per request and route every key of the request off
// that one snapshot — no lock, and no torn routing across a concurrent
// state change. Writers (migration prologue/epilogue, recovery grants)
// build a fresh map under Server.tabletMu and publish it with a single
// pointer store; a published map's entries slice is never mutated again.
type tabletMap struct {
	entries []tabletEntry
}

// emptyTabletMap is the registry before any RegisterTablet.
var emptyTabletMap = &tabletMap{}

// lookup finds the tablet containing (table, hash).
func (tm *tabletMap) lookup(table wire.TableID, hash uint64) (TabletState, bool) {
	for i := range tm.entries {
		t := &tm.entries[i]
		if t.table == table && t.rng.Contains(hash) {
			return t.state, true
		}
	}
	return TabletNormal, false
}

// covers reports whether the entries of table together cover every hash
// of rng, in any state. Entries never overlap (RegisterTablet carves them
// apart), so each step jumps past one entry.
func (tm *tabletMap) covers(table wire.TableID, rng wire.HashRange) bool {
	at := rng.Start
	for {
		found := false
		for _, t := range tm.entries {
			if t.table != table || !t.rng.Contains(at) {
				continue
			}
			if t.rng.End >= rng.End {
				return true
			}
			at, found = t.rng.End+1, true
			break
		}
		if !found {
			return false
		}
	}
}

// tabletSnapshot returns the current routing snapshot. One atomic load;
// the result stays internally consistent for the request's lifetime.
func (s *Server) tabletSnapshot() *tabletMap {
	return s.tablets.Load()
}

// tabletFor finds the tablet containing (table, hash) in the current
// snapshot. Handlers routing more than one key should call tabletSnapshot
// once and use lookup directly.
func (s *Server) tabletFor(table wire.TableID, hash uint64) (TabletState, bool) {
	return s.tabletSnapshot().lookup(table, hash)
}

// Serves reports whether this server serves any part of (table, rng) in
// normal service.
func (s *Server) Serves(table wire.TableID, rng wire.HashRange) bool {
	for _, t := range s.tabletSnapshot().entries {
		if t.table == table && t.rng.Overlaps(rng) && t.state == TabletNormal {
			return true
		}
	}
	return false
}

// RegisterTablet records ownership of (table, rng) in the given state.
// Overlapping portions of existing entries are carved away: registering a
// sub-range of a tablet splits the tablet, leaving the remainder in its
// previous state. This is how "defer all repartitioning until the moment
// of migration" works at the server: boundaries appear exactly when a
// migration (or grant) names them. A pending sweep of an earlier drop of
// the range is finished first, so it cannot reach records that arrive
// once the range is registered.
func (s *Server) RegisterTablet(table wire.TableID, rng wire.HashRange, state TabletState) {
	// Heat tracking keys off registered tables; registering here (rare,
	// off the hot path) is what lets Record stay allocation-free.
	s.heat.RegisterTable(table)
	s.tabletMu.Lock()
	defer s.tabletMu.Unlock()
	s.registerLocked(table, rng, state)
}

// registerLocked is RegisterTablet for a caller that holds tabletMu.
func (s *Server) registerLocked(table wire.TableID, rng wire.HashRange, state TabletState) {
	s.finishSweeps(table, rng)
	cur := s.tablets.Load()
	next := make([]tabletEntry, 0, len(cur.entries)+2)
	for _, t := range cur.entries {
		if t.table != table || !t.rng.Overlaps(rng) {
			next = append(next, t)
			continue
		}
		// Keep the non-overlapping remainders of the old entry.
		if t.rng.Start < rng.Start {
			next = append(next, tabletEntry{table: table, rng: wire.HashRange{Start: t.rng.Start, End: rng.Start - 1}, state: t.state})
		}
		if t.rng.End > rng.End {
			next = append(next, tabletEntry{table: table, rng: wire.HashRange{Start: rng.End + 1, End: t.rng.End}, state: t.state})
		}
	}
	next = append(next, tabletEntry{table: table, rng: rng, state: state})
	s.tablets.Store(&tabletMap{entries: next})
}

// prepareMigrationOut is the source's half of a migration prologue: under
// one tabletMu hold it checks that this server's tablets cover all of
// (table, rng) and, unless the source keeps serving, registers the range
// MigratingOut. Any state counts as covering: a range still migrating in
// may be prepared to leave again, and a retried prepare finds the range
// already migrating out. It reports whether the range was covered; a
// range held only in part is left exactly as it was.
func (s *Server) prepareMigrationOut(table wire.TableID, rng wire.HashRange, keepServing bool) bool {
	s.tabletMu.Lock()
	defer s.tabletMu.Unlock()
	if !s.tablets.Load().covers(table, rng) {
		return false
	}
	if !keepServing {
		s.registerLocked(table, rng, TabletMigratingOut)
	}
	return true
}

// DropTablet forgets (table, rng) and discards its records before it
// returns: it retires the range and finishes the sweep inline, under
// tabletMu. The DropTablet RPC only retires the range and leaves the
// sweep to the background (handleDropTablet).
func (s *Server) DropTablet(table wire.TableID, rng wire.HashRange) {
	s.tabletMu.Lock()
	defer s.tabletMu.Unlock()
	s.retireLocked(table, rng)
	s.finishSweeps(table, rng)
}

// SetTabletState moves every tablet inside rng that is in state from to
// state to, and reports whether any was. Entries in another state are left
// alone: a transition decided earlier must not overwrite one made since —
// a migration finishing on a range that a newer migration has already
// started moving away again would otherwise resume serving it.
// Copy-on-write: a reader mid-request keeps routing off the old snapshot;
// the next request sees the new state.
func (s *Server) SetTabletState(table wire.TableID, rng wire.HashRange, from, to TabletState) bool {
	s.tabletMu.Lock()
	defer s.tabletMu.Unlock()
	cur := s.tablets.Load()
	next := make([]tabletEntry, len(cur.entries))
	copy(next, cur.entries)
	changed := false
	for i := range next {
		t := &next[i]
		if t.table == table && rng.ContainsRange(t.rng) && t.state == from {
			t.state = to
			changed = true
		}
	}
	if changed {
		s.tablets.Store(&tabletMap{entries: next})
	}
	return changed
}

// SplitTablet materializes a boundary at (table, at) in the server's own
// routing map: the entry containing the hash becomes two entries of the
// same state. Pure RCU map surgery — no record moves, readers mid-request
// keep routing off the old snapshot. Returns false when no entry contains
// the hash or the boundary already exists.
func (s *Server) SplitTablet(table wire.TableID, at uint64) bool {
	s.tabletMu.Lock()
	defer s.tabletMu.Unlock()
	cur := s.tablets.Load()
	for i := range cur.entries {
		t := cur.entries[i]
		if t.table != table || !t.rng.Contains(at) || t.rng.Start == at {
			continue
		}
		next := make([]tabletEntry, 0, len(cur.entries)+1)
		next = append(next, cur.entries[:i]...)
		next = append(next,
			tabletEntry{table: table, rng: wire.HashRange{Start: t.rng.Start, End: at - 1}, state: t.state},
			tabletEntry{table: table, rng: wire.HashRange{Start: at, End: t.rng.End}, state: t.state})
		next = append(next, cur.entries[i+1:]...)
		s.tablets.Store(&tabletMap{entries: next})
		return true
	}
	return false
}

// MergeTablets erases the boundary at (table, at): the two entries meeting
// there coalesce into one. The inverse of SplitTablet; refused unless both
// neighbours exist and share a state (merging across a migration state
// would blur which keys are immutable). Returns false when refused.
func (s *Server) MergeTablets(table wire.TableID, at uint64) bool {
	s.tabletMu.Lock()
	defer s.tabletMu.Unlock()
	cur := s.tablets.Load()
	lo, hi := -1, -1
	for i := range cur.entries {
		t := &cur.entries[i]
		if t.table != table {
			continue
		}
		if t.rng.End == at-1 {
			lo = i
		}
		if t.rng.Start == at {
			hi = i
		}
	}
	if lo < 0 || hi < 0 || cur.entries[lo].state != cur.entries[hi].state {
		return false
	}
	next := make([]tabletEntry, 0, len(cur.entries)-1)
	for i := range cur.entries {
		if i == hi {
			continue
		}
		e := cur.entries[i]
		if i == lo {
			e.rng.End = cur.entries[hi].rng.End
		}
		next = append(next, e)
	}
	s.tablets.Store(&tabletMap{entries: next})
	return true
}

// Tablets snapshots the registry (tests, debugging).
func (s *Server) Tablets() []wire.Tablet {
	tm := s.tabletSnapshot()
	out := make([]wire.Tablet, 0, len(tm.entries))
	for _, t := range tm.entries {
		out = append(out, wire.Tablet{Table: t.table, Range: t.rng, Master: s.cfg.ID})
	}
	return out
}
