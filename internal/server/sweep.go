package server

import (
	"sync"

	"rocksteady/internal/wire"
)

// sweepChunkBuckets is about how many hash-table buckets one step of a
// range sweep visits. A quarter of migrate_loaded's table (131072 buckets,
// about 300 k records) took some 120 ms to sweep in one piece, so a step
// takes about 0.1 ms: a foreground task queued behind a background step
// waits little, and the foreground gets ahead of the sweep between steps.
const sweepChunkBuckets = 128

// rangeSweep reclaims the records of one retired range: every hash-table
// entry of (table, rng) leaves the table and its log entry is marked dead.
// The range is cut into sub-ranges of about sweepChunkBuckets buckets, and
// a shared cursor hands them out. Background tasks take one sub-range per
// task; a joiner takes all that are left. Whoever comes next sweeps the
// next sub-range, so a joiner never waits on a task that is only queued
// (Scheduler.Close discards those) — at most on the one step in progress.
type rangeSweep struct {
	table wire.TableID
	rng   wire.HashRange

	mu    sync.Mutex // held for the whole of one step
	parts []wire.HashRange
	next  int
}

// retireLocked unregisters every tablet inside (table, rng) and records a
// pending sweep of the range's records. The caller holds tabletMu and
// either finishes the sweep itself (DropTablet) or leaves it to the
// background (handleDropTablet).
func (s *Server) retireLocked(table wire.TableID, rng wire.HashRange) *rangeSweep {
	cur := s.tablets.Load()
	kept := make([]tabletEntry, 0, len(cur.entries))
	for _, t := range cur.entries {
		if t.table == table && rng.ContainsRange(t.rng) {
			continue
		}
		kept = append(kept, t)
	}
	s.tablets.Store(&tabletMap{entries: kept})

	buckets := s.ht.BucketOf(rng.End) - s.ht.BucketOf(rng.Start) + 1
	sw := &rangeSweep{table: table, rng: rng, parts: rng.Split(int(buckets/sweepChunkBuckets) + 1)}
	s.sweepMu.Lock()
	s.sweeps = append(s.sweeps, sw)
	s.sweepMu.Unlock()
	return sw
}

// sweepStep sweeps the next sub-range of sw, if one is left, and reports
// whether more remain. The last step removes sw from the pending list.
func (s *Server) sweepStep(sw *rangeSweep) bool {
	sw.mu.Lock()
	if sw.next < len(sw.parts) {
		s.ht.RemoveRange(sw.table, sw.parts[sw.next], s.log.MarkDead)
		sw.next++
	}
	more := sw.next < len(sw.parts)
	sw.mu.Unlock()
	if !more {
		s.sweepMu.Lock()
		for i, p := range s.sweeps {
			if p == sw {
				s.sweeps = append(s.sweeps[:i], s.sweeps[i+1:]...)
				break
			}
		}
		s.sweepMu.Unlock()
	}
	return more
}

// sweepInBackground runs sw as a chain of PriorityBackground tasks, one
// step each. A chain cut short by Close leaves the rest to the next
// joiner.
func (s *Server) sweepInBackground(sw *rangeSweep) {
	s.sched.Enqueue(wire.PriorityBackground, func() {
		if s.sweepStep(sw) {
			s.sweepInBackground(sw)
		}
	})
}

// finishSweeps sweeps, inline, whatever is left of every pending sweep
// that overlaps (table, rng). Every path about to put records into a
// range this server does not serve calls it first, so a sweep of an
// earlier retirement never reaches them. RegisterTablet and DropTablet
// call it under tabletMu, which retirement also holds: no retirement can
// slip in between the join and the registration.
func (s *Server) finishSweeps(table wire.TableID, rng wire.HashRange) {
	s.sweepMu.Lock()
	var overlapping []*rangeSweep
	for _, sw := range s.sweeps {
		if sw.table == table && sw.rng.Overlaps(rng) {
			overlapping = append(overlapping, sw)
		}
	}
	s.sweepMu.Unlock()
	for _, sw := range overlapping {
		for more := true; more; {
			more = s.sweepStep(sw)
		}
	}
}
