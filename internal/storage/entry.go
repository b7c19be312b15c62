// Package storage implements RAMCloud-style log-structured memory: an
// append-only segmented in-memory log holding every object, side logs for
// contention-free parallel replay (Rocksteady §3.1.3), a cost-benefit log
// cleaner, and the partitioned hash table that serves as each master's
// primary-key index.
//
// The log is the only home of object data; the hash table stores references
// (segment + offset) into it. Readers access entries concurrently with
// appends: a segment's bytes below its append offset are immutable.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rocksteady/internal/wire"
)

// EntryType tags a log entry.
type EntryType uint8

// Log entry types.
const (
	// EntryObject is a live key-value object.
	EntryObject EntryType = 1
	// EntryTombstone records a deletion. Aux holds the segment ID that
	// contained the deleted object; the tombstone stays live until that
	// segment has been cleaned, which is what makes cleaning safe with
	// respect to crash recovery.
	EntryTombstone EntryType = 2
	// EntrySideLogCommit marks the atomic commit of a side log into the
	// main log. Aux holds the side log's ID.
	EntrySideLogCommit EntryType = 3
)

// EntryHeaderSize is the fixed encoded size of an entry header.
const EntryHeaderSize = 43

// castagnoli is the CRC-32C table used for entry checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadChecksum reports a corrupt log entry.
var ErrBadChecksum = errors.New("storage: entry checksum mismatch")

// ErrBadEntry reports a structurally invalid log entry.
var ErrBadEntry = errors.New("storage: malformed entry")

// EntryHeader is the decoded fixed-size prefix of every log entry.
type EntryHeader struct {
	Type    EntryType
	Table   wire.TableID
	Version uint64
	Aux     uint64 // tombstone: killed segment ID; sidelog commit: side log ID
	// Epoch is the master-wide append sequence number: every append to any
	// of a master's logs (all shard heads and side logs share one counter)
	// gets a unique, monotonically increasing epoch. It totally orders a
	// master's appends even though sharded heads interleave them across
	// segments, which is what keeps replay deterministic and lets the
	// tail catch-up of migration filter by time instead of segment ID.
	Epoch    uint64
	KeyLen   uint16
	ValueLen uint32
	Checksum uint32 // CRC-32C over header fields (checksum zeroed) + key + value
}

// EntrySize returns the total encoded size of an entry with the given key
// and value lengths.
func EntrySize(keyLen, valueLen int) int {
	return EntryHeaderSize + keyLen + valueLen
}

// Size returns the total encoded size of the entry the header describes.
func (h *EntryHeader) Size() int { return EntrySize(int(h.KeyLen), int(h.ValueLen)) }

func (h *EntryHeader) String() string {
	return fmt.Sprintf("entry{type=%d table=%d ver=%d klen=%d vlen=%d}",
		h.Type, h.Table, h.Version, h.KeyLen, h.ValueLen)
}

// encodeEntry encodes header+key+value at the end of buf and returns the
// extended slice. The checksum is computed here.
//
//lint:hotpath
func encodeEntry(buf []byte, h *EntryHeader, key, value []byte) []byte {
	start := len(buf)
	buf = append(buf, byte(h.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Table))
	buf = binary.LittleEndian.AppendUint64(buf, h.Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.Aux)
	buf = binary.LittleEndian.AppendUint64(buf, h.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(value)))
	crcOff := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // checksum placeholder
	buf = append(buf, key...)
	buf = append(buf, value...)
	crc := entryCRC(buf[start:crcOff], key, value)
	binary.LittleEndian.PutUint32(buf[crcOff:], crc)
	return buf
}

func entryCRC(headerPrefix, key, value []byte) uint32 {
	crc := crc32.Update(0, castagnoli, headerPrefix)
	crc = crc32.Update(crc, castagnoli, key)
	return crc32.Update(crc, castagnoli, value)
}

// parseHeader decodes the fixed header at the start of buf. It does not
// validate the checksum; use parseEntry for full validation.
func parseHeader(buf []byte) (EntryHeader, error) {
	if len(buf) < EntryHeaderSize {
		return EntryHeader{}, ErrBadEntry
	}
	h := EntryHeader{
		Type:     EntryType(buf[0]),
		Table:    wire.TableID(binary.LittleEndian.Uint64(buf[1:])),
		Version:  binary.LittleEndian.Uint64(buf[9:]),
		Aux:      binary.LittleEndian.Uint64(buf[17:]),
		Epoch:    binary.LittleEndian.Uint64(buf[25:]),
		KeyLen:   binary.LittleEndian.Uint16(buf[33:]),
		ValueLen: binary.LittleEndian.Uint32(buf[35:]),
		Checksum: binary.LittleEndian.Uint32(buf[39:]),
	}
	if h.Type == 0 || h.Type > EntrySideLogCommit {
		return EntryHeader{}, ErrBadEntry
	}
	if len(buf) < h.Size() {
		return EntryHeader{}, ErrBadEntry
	}
	return h, nil
}

// peekHeader reads the table and the total entry size from the header at
// the start of buf, which holds at least EntryHeaderSize bytes, without
// validating anything: the touch pass uses it to find an entry's lines.
func peekHeader(buf []byte) (wire.TableID, int) {
	return wire.TableID(binary.LittleEndian.Uint64(buf[1:])),
		EntrySize(int(binary.LittleEndian.Uint16(buf[33:])), int(binary.LittleEndian.Uint32(buf[35:])))
}

// ParseEntryAt decodes and checksum-validates the entry at the start of
// buf; recovery uses it to scan backup segment replicas. The returned key
// and value alias buf.
func ParseEntryAt(buf []byte) (EntryHeader, []byte, []byte, error) { return parseEntry(buf) }

// parseEntry decodes and checksum-validates the entry at the start of buf.
// The returned key and value alias buf.
func parseEntry(buf []byte) (h EntryHeader, key, value []byte, err error) {
	h, err = parseHeader(buf)
	if err != nil {
		return h, nil, nil, err
	}
	key, value, err = entryBody(buf, h)
	return h, key, value, err
}

// entryBody returns the key and value of the entry at the start of buf,
// whose header parseHeader decoded from buf as h, after checking them
// against h's checksum. They alias buf.
func entryBody(buf []byte, h EntryHeader) (key, value []byte, err error) {
	if len(buf) < h.Size() {
		return nil, nil, ErrBadEntry
	}
	key = buf[EntryHeaderSize : EntryHeaderSize+int(h.KeyLen)]
	value = buf[EntryHeaderSize+int(h.KeyLen) : h.Size()]
	if entryCRC(buf[:EntryHeaderSize-4], key, value) != h.Checksum {
		return nil, nil, ErrBadChecksum
	}
	return key, value, nil
}
