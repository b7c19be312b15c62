// Package backup implements the durability substrate: every server runs a
// backup service that stores replicas of other masters' log segments
// (standing in for RAMCloud's remote flash), and every master runs a
// Replicator that streams its log tail to its backups with group commit.
//
// Persistence is pluggable behind SegmentStore (segstore.go): MemStore
// keeps replicas in memory (the default), FileStore persists them as
// append-only files with batched fsync so data survives a full-cluster
// restart. The Store type here is the RPC surface shared by both —
// throttling, batch application, durability acks, and paged reads.
//
// The paper's replication ceiling (~380 MB/s on their cluster, §2.3) is
// reproduced with a configurable write-bandwidth throttle on the store.
package backup

import (
	"sync"
	"time"

	"rocksteady/internal/wire"
)

// DefaultGetSegmentsPageBytes caps one GetBackupSegments response when
// the request does not set MaxBytes. Recovery of a large master streams
// its replicas page by page instead of materializing every segment it
// holds in one unbounded response.
const DefaultGetSegmentsPageBytes = 4 << 20

// Store is the backup service state on one server: the RPC-facing layer
// over a pluggable SegmentStore backend.
type Store struct {
	// WriteBandwidth throttles replica writes in bytes/sec; 0 disables
	// throttling. Models the flash/replication ceiling of §2.3.
	WriteBandwidth float64

	seg SegmentStore

	mu      sync.Mutex
	nicFree time.Time
}

// NewStore creates a backup store over the in-memory backend.
func NewStore() *Store {
	return NewStoreWith(NewMemStore())
}

// NewStoreWith creates a backup store over the given backend.
func NewStoreWith(seg SegmentStore) *Store {
	return &Store{seg: seg}
}

// Backend returns the store's SegmentStore.
func (s *Store) Backend() SegmentStore { return s.seg }

// Close releases the backend (file handles for FileStore).
func (s *Store) Close() error { return s.seg.Close() }

// BytesWritten returns total replica bytes accepted.
func (s *Store) BytesWritten() int64 {
	return s.seg.Stats().BytesWritten
}

// HandleReplicateBatch applies a replication batch, the only replica
// write: each chunk appends its bytes at its offset of a replica, creating
// the replica if needed. Every chunk is applied, then ONE backend Sync
// covers them all — the group-fsync mirror of the replicator's group
// commit — before any chunk is acknowledged, so an OK is an ack that the
// bytes are durable. Chunks are acknowledged individually so the master
// can re-replicate exactly the chunks that failed; a failed sync fails
// every chunk, because none of them is durable.
func (s *Store) HandleReplicateBatch(req *wire.ReplicateBatchRequest) *wire.ReplicateBatchResponse {
	total := 0
	for i := range req.Chunks {
		total += len(req.Chunks[i].Data)
	}
	s.throttle(total)
	resp := &wire.ReplicateBatchResponse{
		Status:        wire.StatusOK,
		ChunkStatuses: make([]wire.Status, len(req.Chunks)),
	}
	applied := false
	for i := range req.Chunks {
		c := &req.Chunks[i]
		st := s.seg.Append(req.Master, c.LogID, c.SegmentID, c.Offset, c.Data, c.Close)
		resp.ChunkStatuses[i] = st
		if st != wire.StatusOK {
			resp.Status = wire.StatusInternalError
		} else {
			applied = true
		}
	}
	if applied {
		if err := s.seg.Sync(); err != nil {
			// Nothing in this batch is durable; retract every ack.
			resp.Status = wire.StatusInternalError
			for i := range resp.ChunkStatuses {
				resp.ChunkStatuses[i] = wire.StatusInternalError
			}
		}
	}
	return resp
}

// throttle enforces the write-bandwidth model using an accumulated-debt
// virtual clock (accurate in aggregate despite coarse OS timers).
func (s *Store) throttle(n int) {
	if s.WriteBandwidth <= 0 || n == 0 {
		return
	}
	d := time.Duration(float64(n) / s.WriteBandwidth * float64(time.Second))
	s.mu.Lock()
	now := time.Now()
	if s.nicFree.Before(now) {
		s.nicFree = now
	}
	s.nicFree = s.nicFree.Add(d)
	debt := s.nicFree.Sub(now)
	s.mu.Unlock()
	if debt > 100*time.Microsecond {
		time.Sleep(debt)
	}
}

// HandleGetSegments returns one page of the replicas held for a master.
// The request's Cursor indexes the store's (logID, segID)-sorted replica
// list; the response carries at least one segment (so a segment larger
// than the cap still moves) and stops before exceeding MaxBytes of
// segment data (DefaultGetSegmentsPageBytes when zero). More and
// NextCursor tell the caller to keep paging. The index is stable while
// the master being recovered stays dead — the only time this is called.
func (s *Store) HandleGetSegments(req *wire.GetBackupSegmentsRequest) *wire.GetBackupSegmentsResponse {
	maxBytes := int(req.MaxBytes)
	if maxBytes <= 0 {
		maxBytes = DefaultGetSegmentsPageBytes
	}
	infos := s.seg.List(req.Master)
	resp := &wire.GetBackupSegmentsResponse{Status: wire.StatusOK}
	i := int(req.Cursor)
	if i < 0 || i > len(infos) {
		i = len(infos)
	}
	bytes := 0
	for ; i < len(infos); i++ {
		if len(resp.Segments) > 0 && bytes+infos[i].Len > maxBytes {
			break
		}
		data, sealed, ok := s.seg.Read(req.Master, infos[i].LogID, infos[i].SegmentID)
		if !ok {
			continue // dropped since List; skip
		}
		resp.Segments = append(resp.Segments, wire.BackupSegment{
			LogID:     infos[i].LogID,
			SegmentID: infos[i].SegmentID,
			Sealed:    sealed,
			Data:      data,
		})
		bytes += len(data)
	}
	resp.NextCursor = uint64(i)
	resp.More = i < len(infos)
	return resp
}

// HandleStatus reports the backend's counters for `rocksteady-cli
// backup status`.
func (s *Store) HandleStatus(req *wire.BackupStatusRequest) *wire.BackupStatusResponse {
	st := s.seg.Stats()
	return &wire.BackupStatusResponse{
		Status:         wire.StatusOK,
		Persistent:     st.Persistent,
		Segments:       uint64(st.Segments),
		SealedSegments: uint64(st.SealedSegments),
		Bytes:          uint64(st.Bytes),
		BytesWritten:   uint64(st.BytesWritten),
		SyncLag:        uint64(st.SyncLag),
	}
}

// Drop discards every replica held for a master (post-recovery cleanup).
func (s *Store) Drop(master wire.ServerID) {
	s.seg.Drop(master)
}
