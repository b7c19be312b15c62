package wire

import (
	"bytes"
	"testing"
)

func poolTestMessage() *Message {
	records := make([]Record, 8)
	for i := range records {
		records[i] = Record{
			Table:   3,
			Version: uint64(i + 1),
			Key:     []byte{byte(i), 'k', 'e', 'y'},
			Value:   bytes.Repeat([]byte{byte(i)}, 64),
		}
	}
	return &Message{
		ID: 99, From: 10, To: 11, Op: OpPull, IsResponse: true,
		Body: &PullResponse{Status: StatusOK, ResumeToken: 5, Records: records},
	}
}

// drainRecordSlices empties the shared free list so pool tests start from a
// known state regardless of what earlier tests deposited.
func drainRecordSlices() {
	for {
		select {
		case <-recordSlices:
		default:
			return
		}
	}
}

// TestPooledMarshalZeroAllocs locks in the tentpole property: marshalling
// through the pooled buffer path allocates nothing once the pool is warm.
func TestPooledMarshalZeroAllocs(t *testing.T) {
	msg := poolTestMessage()
	// Warm the pool and grow the buffer to the message size.
	ReleaseBuffer(MarshalMessagePooled(msg))
	allocs := testing.AllocsPerRun(100, func() {
		fb := MarshalMessagePooled(msg)
		ReleaseBuffer(fb)
	})
	if allocs != 0 {
		t.Fatalf("pooled marshal allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPooledRoundtripAllocs bounds the full pooled marshal+unmarshal cycle:
// only the decoded *Message and its body struct are allocated per message.
func TestPooledRoundtripAllocs(t *testing.T) {
	msg := poolTestMessage()
	roundtrip := func() {
		fb := MarshalMessagePooled(msg)
		m, err := UnmarshalMessage(fb.B)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseRecordSlice(m.Body.(*PullResponse).Records)
		ReleaseBuffer(fb)
	}
	roundtrip() // warm the pools
	allocs := testing.AllocsPerRun(100, roundtrip)
	if allocs > 2 {
		t.Fatalf("pooled roundtrip allocates %.1f objects/op, want <= 2 (message + body)", allocs)
	}
}

func TestMarshalPooledMatchesMarshal(t *testing.T) {
	msg := poolTestMessage()
	plain := AppendMessage(nil, msg)
	fb := MarshalMessagePooled(msg)
	defer ReleaseBuffer(fb)
	if !bytes.Equal(plain, fb.B) {
		t.Fatalf("pooled marshal bytes differ from AppendMessage")
	}
}

func TestGetBufferEmpty(t *testing.T) {
	b := GetBuffer()
	b.B = append(b.B, 1, 2, 3)
	ReleaseBuffer(b)
	got := GetBuffer()
	defer ReleaseBuffer(got)
	if len(got.B) != 0 {
		t.Fatalf("GetBuffer returned len %d, want 0", len(got.B))
	}
}

func TestReleaseBufferDropsOversized(t *testing.T) {
	ReleaseBuffer(nil) // must not panic
	big := &Buffer{B: make([]byte, 0, maxPooledBuffer+1)}
	ReleaseBuffer(big)
	got := GetBuffer()
	defer ReleaseBuffer(got)
	if got == big {
		t.Fatalf("oversized buffer was pooled")
	}
}

// TestReleaseRecordSliceClears verifies parked slices never pin the log
// segments or frame buffers their records aliased.
func TestReleaseRecordSliceClears(t *testing.T) {
	drainRecordSlices()
	rs := GetRecordSlice()
	rs = append(rs, Record{Key: []byte("k"), Value: []byte("v"), Version: 7})
	ReleaseRecordSlice(rs)
	if got := rs[:1][0]; got.Key != nil || got.Value != nil || got.Version != 0 {
		t.Fatalf("released slice retains record %+v", got)
	}
}

func TestRecordSlicePoolRoundTrip(t *testing.T) {
	drainRecordSlices()
	rs := GetRecordSlice()
	for i := 0; i < 100; i++ {
		rs = append(rs, Record{Version: uint64(i)})
	}
	grownCap := cap(rs)
	ReleaseRecordSlice(rs)
	got := GetRecordSlice()
	if len(got) != 0 || cap(got) != grownCap {
		t.Fatalf("pool returned len=%d cap=%d, want len=0 cap=%d", len(got), cap(got), grownCap)
	}
	ReleaseRecordSlice(got)
	drainRecordSlices()

	// Slices beyond the residency cap and the shared empty slice are dropped.
	ReleaseRecordSlice(make([]Record, 0, maxPooledRecordCap+1))
	ReleaseRecordSlice([]Record{})
	select {
	case rs := <-recordSlices:
		t.Fatalf("pooled a slice that should have been dropped (cap %d)", cap(rs))
	default:
	}
}

// TestDecodeCountGuards feeds each list element type a count far larger
// than the remaining bytes: decoding must fail with ErrTruncated instead of
// pre-allocating gigabytes for a corrupt frame.
func TestDecodeCountGuards(t *testing.T) {
	cases := map[string]func(c *codec){
		"Records":   func(c *codec) { var s []Record; seq(c, &s) },
		"Blobs":     func(c *codec) { var s [][]byte; seq(c, &s) },
		"U64s":      func(c *codec) { var s []uint64; seq(c, &s) },
		"Statuses":  func(c *codec) { var s []Status; seq(c, &s) },
		"ServerIDs": func(c *codec) { var s []ServerID; seq(c, &s) },
		"Chunks":    func(c *codec) { var s []ReplicateChunk; seq(c, &s) },
		"Segments":  func(c *codec) { var s []BackupSegment; seq(c, &s) },
		"Tablets":   func(c *codec) { var s []Tablet; seq(c, &s) },
		"Indexlets": func(c *codec) { var s []Indexlet; seq(c, &s) },
		"Heat":      func(c *codec) { var s []TabletHeat; seq(c, &s) },
	}
	huge := uint32(1 << 30)
	enc := codec{mode: encoding}
	u32(&enc, &huge)
	for name, decode := range cases {
		d := codec{mode: decoding, buf: enc.buf}
		decode(&d)
		if d.err != ErrTruncated {
			t.Fatalf("%s: corrupt count decoded with error %v, want ErrTruncated", name, d.err)
		}
	}
}

// TestDecoderAliased verifies the flag the TCP read loop uses to decide
// whether a frame buffer can be recycled.
func TestDecoderAliased(t *testing.T) {
	one, two := uint64(1), uint64(2)
	enc := codec{mode: encoding}
	u64(&enc, &one)
	u64(&enc, &two)
	d := codec{mode: decoding, buf: enc.buf}
	u64(&d, &one)
	u64(&d, &two)
	if d.aliased {
		t.Fatalf("scalar-only decode marked aliased")
	}
	payload := []byte("payload")
	enc = codec{mode: encoding}
	blob(&enc, &payload)
	d = codec{mode: decoding, buf: enc.buf}
	var got []byte
	blob(&d, &got)
	if !d.aliased {
		t.Fatalf("blob decode not marked aliased")
	}
}

// TestRecordsDecodePooled: a non-empty record list decodes into a pooled
// slice with exactly pre-sized capacity when the pool can't satisfy it.
func TestRecordsDecodePooled(t *testing.T) {
	drainRecordSlices()
	msg := poolTestMessage()
	want := len(msg.Body.(*PullResponse).Records)
	buf := AppendMessage(nil, msg)
	m, err := UnmarshalMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Body.(*PullResponse).Records
	if len(got) != want {
		t.Fatalf("decoded %d records, want %d", len(got), want)
	}
	ReleaseRecordSlice(got)
	// The released slice should now serve the next decode without growing.
	m2, err := UnmarshalMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	got2 := m2.Body.(*PullResponse).Records
	if cap(got2) < want {
		t.Fatalf("second decode did not reuse pooled capacity (cap %d)", cap(got2))
	}
	ReleaseRecordSlice(got2)
}
