package storage

import (
	"sync"

	"rocksteady/internal/wire"
)

// Cleaner is the log cleaner: it reclaims dead space by relocating the
// live entries of mostly-dead segments to the log head and freeing the
// segments. RAMCloud's cleaner is why Rocksteady rejects physical
// pre-partitioning (§1, §5.1): the cleaner must stay free to co-locate
// records by lifetime, so records of one tablet end up scattered across
// segments — exactly the layout Pulls iterate the hash table (not the
// log) to collect.
type Cleaner struct {
	log *Log
	ht  *HashTable

	mu sync.Mutex // one cleaning pass at a time

	// WriteCostThreshold bounds the live fraction above which a segment is
	// not worth cleaning (default 0.95).
	WriteCostThreshold float64
}

// NewCleaner creates a cleaner for a master's main log and hash table.
func NewCleaner(log *Log, ht *HashTable) *Cleaner {
	return &Cleaner{log: log, ht: ht, WriteCostThreshold: 0.95}
}

// selectVictim picks the sealed segment with the lowest live fraction, a
// simplified cost-benefit policy.
func (c *Cleaner) selectVictim() *Segment {
	var victim *Segment
	victimLive := c.WriteCostThreshold
	for _, s := range c.log.Segments() {
		if !s.Sealed() || s.Len() == 0 {
			continue
		}
		liveFrac := float64(s.LiveBytes()) / float64(s.Len())
		if liveFrac < victimLive {
			victim = s
			victimLive = liveFrac
		}
	}
	return victim
}

// CleanOnce performs one cleaning pass: select a victim, relocate its live
// entries, free it. Returns reclaimed bytes and whether a pass ran.
func (c *Cleaner) CleanOnce() (reclaimed int, cleaned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	victim := c.selectVictim()
	if victim == nil {
		return 0, false
	}
	limit := victim.Len()
	var relocated int
	err := iterateSegment(victim, limit, func(off uint32, h EntryHeader) bool {
		ref := Ref{Seg: victim, Off: off}
		switch h.Type {
		case EntryObject:
			c.relocateObject(ref, h, &relocated)
		case EntryTombstone:
			c.relocateTombstone(ref, h, &relocated)
		case EntrySideLogCommit:
			// Commit markers matter only for recovery-log ordering; the
			// in-memory copy can drop them once sealed.
		}
		return true
	})
	if err != nil {
		return 0, false
	}
	// Relocated entries were re-counted live at their new home, and the
	// victim's counter still includes them plus any expired tombstones and
	// commit markers; dropping the victim's remaining count keeps the
	// global live-byte statistic consistent.
	c.log.adjustLive(int64(-victim.LiveBytes()))
	c.log.removeSegment(victim.ID)
	reclaimed = limit - relocated
	c.log.stats.CleanedBytes.Add(int64(reclaimed))
	return reclaimed, true
}

// relocateObject moves a live object to the log head; an object is live
// iff the hash table still points at this exact ref.
func (c *Cleaner) relocateObject(ref Ref, h EntryHeader, relocated *int) {
	_, key, value, err := ref.Entry()
	if err != nil {
		return
	}
	hash := wire.HashKey(key)
	if !c.ht.RefersTo(h.Table, key, hash, ref) {
		return // dead: overwritten, deleted, or migrated away
	}
	newRef, err := c.log.Append(0, EntryObject, h.Table, h.Version, 0, key, value)
	if err != nil {
		return
	}
	if c.ht.ReplaceRef(h.Table, key, hash, ref, newRef) {
		*relocated += h.Size() // Append already counted the new copy live
	} else {
		// A concurrent write replaced the entry between our check and the
		// swap; the relocated copy is immediately dead.
		c.log.MarkDead(newRef)
	}
}

// relocateTombstone preserves a tombstone while the segment holding the
// object it deleted still exists; once that segment is gone the deletion
// can never resurface during recovery and the tombstone is dead.
func (c *Cleaner) relocateTombstone(ref Ref, h EntryHeader, relocated *int) {
	if !c.log.hasSegment(h.Aux) {
		return // dead tombstone
	}
	_, key, _, err := ref.Entry()
	if err != nil {
		return
	}
	newRef, err := c.log.Append(0, EntryTombstone, h.Table, h.Version, h.Aux, key, nil)
	if err != nil {
		return
	}
	// A migrating-in tablet may park tombstone refs in the hash table;
	// keep such refs pointing at the live copy.
	c.ht.ReplaceRef(h.Table, key, wire.HashKey(key), ref, newRef)
	*relocated += h.Size()
}

// MarkDead records that the entry at ref no longer counts as live.
func (l *Log) MarkDead(ref Ref) {
	if ref.IsZero() {
		return
	}
	if n := ref.Size(); n > 0 {
		ref.Seg.addLive(-n)
		l.adjustLive(int64(-n))
	}
}
