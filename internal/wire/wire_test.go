package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHashKeyDeterministic(t *testing.T) {
	a := HashKey([]byte("alpha"))
	b := HashKey([]byte("alpha"))
	if a != b {
		t.Fatalf("HashKey not deterministic: %x vs %x", a, b)
	}
	if a == HashKey([]byte("beta")) {
		t.Fatalf("distinct keys hashed equal")
	}
}

func TestHashRangeContains(t *testing.T) {
	r := HashRange{Start: 100, End: 200}
	for _, tc := range []struct {
		h    uint64
		want bool
	}{
		{99, false}, {100, true}, {150, true}, {200, true}, {201, false},
	} {
		if got := r.Contains(tc.h); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.h, got, tc.want)
		}
	}
}

func TestHashRangeOverlaps(t *testing.T) {
	r := HashRange{Start: 100, End: 200}
	cases := []struct {
		other HashRange
		want  bool
	}{
		{HashRange{0, 99}, false},
		{HashRange{0, 100}, true},
		{HashRange{150, 160}, true},
		{HashRange{200, 300}, true},
		{HashRange{201, 300}, false},
	}
	for _, tc := range cases {
		if got := r.Overlaps(tc.other); got != tc.want {
			t.Errorf("Overlaps(%v) = %v, want %v", tc.other, got, tc.want)
		}
		if got := tc.other.Overlaps(r); got != tc.want {
			t.Errorf("Overlaps is not symmetric for %v", tc.other)
		}
	}
}

func TestHashRangeContainsRange(t *testing.T) {
	r := HashRange{Start: 100, End: 200}
	if !r.ContainsRange(HashRange{100, 200}) {
		t.Error("range should contain itself")
	}
	if !r.ContainsRange(HashRange{120, 130}) {
		t.Error("should contain strict subrange")
	}
	if r.ContainsRange(HashRange{99, 150}) || r.ContainsRange(HashRange{150, 201}) {
		t.Error("should not contain overhanging ranges")
	}
}

// Splitting any range into n parts must produce contiguous, non-overlapping
// parts whose union is exactly the original range.
func TestHashRangeSplitCoversExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(r HashRange, n int) {
		parts := r.Split(n)
		if len(parts) == 0 {
			t.Fatalf("Split(%v, %d) returned no parts", r, n)
		}
		if parts[0].Start != r.Start {
			t.Fatalf("first part starts at %x, want %x", parts[0].Start, r.Start)
		}
		if parts[len(parts)-1].End != r.End {
			t.Fatalf("last part ends at %x, want %x", parts[len(parts)-1].End, r.End)
		}
		for i := 1; i < len(parts); i++ {
			if parts[i].Start != parts[i-1].End+1 {
				t.Fatalf("gap/overlap between parts %d and %d: %v %v", i-1, i, parts[i-1], parts[i])
			}
		}
		for _, p := range parts {
			if p.Start > p.End {
				t.Fatalf("inverted part %v", p)
			}
		}
	}
	check(FullRange(), 8)
	check(FullRange(), 1)
	check(FullRange(), 16)
	check(HashRange{0, 6}, 8) // more parts than values
	check(HashRange{5, 5}, 3) // single value
	for i := 0; i < 200; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		check(HashRange{a, b}, 1+rng.Intn(20))
	}
}

func TestHashRangeSplitHalves(t *testing.T) {
	parts := FullRange().Split(2)
	if len(parts) != 2 {
		t.Fatalf("expected 2 parts, got %d", len(parts))
	}
	if parts[0].End != 1<<63-1 || parts[1].Start != 1<<63 {
		t.Fatalf("uneven halves: %v", parts)
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func sampleMessages(rng *rand.Rand) []*Message {
	rb := func() []byte { return randomBytes(rng, rng.Intn(64)) }
	recs := []Record{
		{Table: 3, Version: 9, Key: rb(), Value: rb()},
		{Table: 4, Version: 10, Key: rb(), Value: rb(), Tombstone: true},
	}
	bodies := []Payload{
		&ReadRequest{Table: 7, Key: rb()},
		&ReadResponse{Status: StatusRetry, Version: 12, Value: rb(), RetryAfterMicros: 40},
		&WriteRequest{Table: 7, Key: rb(), Value: rb()},
		&WriteResponse{Status: StatusOK, Version: 99},
		&DeleteRequest{Table: 2, Key: rb()},
		&DeleteResponse{Status: StatusNoSuchKey, Version: 1},
		&MultiGetRequest{Table: 1, Keys: [][]byte{rb(), rb(), rb()}},
		&MultiGetResponse{Status: StatusOK, Statuses: []Status{StatusOK, StatusNoSuchKey}, Versions: []uint64{5, 0}, Values: [][]byte{rb(), nil}},
		&MultiPutRequest{Table: 1, Keys: [][]byte{rb()}, Values: [][]byte{rb()}},
		&MultiPutResponse{Status: StatusOK, Statuses: []Status{StatusOK}, Versions: []uint64{7}},
		&MultiGetByHashRequest{Table: 8, Hashes: []uint64{1, 2, 3}},
		&MultiGetByHashResponse{Status: StatusOK, Records: recs},
		&IndexLookupRequest{Index: 5, Begin: rb(), End: rb(), Limit: 4},
		&IndexLookupResponse{Status: StatusOK, Hashes: []uint64{11, 22}},
		&IndexInsertRequest{Index: 5, SecondaryKey: rb(), KeyHash: 77},
		&IndexInsertResponse{Status: StatusOK},
		&IndexRemoveRequest{Index: 5, SecondaryKey: rb(), KeyHash: 77},
		&IndexRemoveResponse{Status: StatusOK},
		&MigrateTabletRequest{Table: 9, Range: HashRange{10, 20}, Source: 3},
		&MigrateTabletResponse{Status: StatusOK},
		&PrepareMigrationRequest{Table: 9, Range: HashRange{10, 20}, Target: 4},
		&PrepareMigrationResponse{Status: StatusOK, VersionCeiling: 1000, NumBuckets: 1 << 20, TailWatermark: 5},
		&AbortMigrationRequest{Table: 9, Range: HashRange{10, 20}, Target: 4},
		&AbortMigrationResponse{Status: StatusOK},
		&PullRequest{Table: 9, Range: HashRange{10, 20}, ResumeToken: 42, ByteBudget: 20 << 10},
		&PullResponse{Status: StatusOK, Records: recs, ResumeToken: 43, Done: true},
		&PriorityPullRequest{Table: 9, Hashes: []uint64{5, 6}},
		&PriorityPullResponse{Status: StatusOK, Records: recs, Missing: []uint64{6}},
		&DropTabletRequest{Table: 9, Range: HashRange{10, 20}},
		&DropTabletResponse{Status: StatusOK},
		&ReplayRecordsRequest{Table: 9, Records: recs, Replicate: true, SkipReplay: false},
		&ReplayRecordsResponse{Status: StatusOK},
		&PullTailRequest{Table: 9, Range: HashRange{1, 2}, AfterEpoch: 7},
		&PullTailResponse{Status: StatusOK, Records: recs},
		&ReplicateBatchRequest{Master: 2, Chunks: []ReplicateChunk{
			{LogID: 0, SegmentID: 17, Offset: 128, Data: rb(), Close: true},
			{LogID: 0, SegmentID: 18, Data: rb()}}},
		&ReplicateBatchResponse{Status: StatusOK, ChunkStatuses: []Status{StatusOK, StatusInternalError}},
		&GetBackupSegmentsRequest{Master: 2, MinLogOffset: 4096},
		&GetBackupSegmentsResponse{Status: StatusOK, Segments: []BackupSegment{{LogID: 1, SegmentID: 3, Data: rb()}}},
		&TakeTabletsRequest{Table: 9, Range: HashRange{1, 2}, Records: recs, VersionCeiling: 88},
		&TakeTabletsResponse{Status: StatusOK},
		&GetTabletMapRequest{},
		&GetTabletMapResponse{Status: StatusOK, Version: 3,
			Tablets:   []Tablet{{Table: 1, Range: HashRange{0, 10}, Master: 2}},
			Indexlets: []Indexlet{{Index: 1, Table: 1, Begin: rb(), End: rb(), Master: 3}}},
		&CreateTableRequest{Name: "users", Servers: []ServerID{2, 3}},
		&CreateTableResponse{Status: StatusOK, Table: 12},
		&CreateIndexRequest{Table: 12, Servers: []ServerID{2, 3}, SplitKeys: [][]byte{rb()}},
		&CreateIndexResponse{Status: StatusOK, Index: 4},
		&MigrateStartRequest{Table: 9, Range: HashRange{1, 2}, Source: 2, Target: 3, TargetLogWatermark: 1 << 30},
		&MigrateStartResponse{Status: StatusOK, MapVersion: 6},
		&MigrateDoneRequest{Table: 9, Range: HashRange{1, 2}, Source: 2, Target: 3},
		&MigrateDoneResponse{Status: StatusOK},
		&SplitTabletRequest{Table: 9, SplitAt: 1 << 63},
		&SplitTabletResponse{Status: StatusOK, MapVersion: 7},
		&EnlistServerRequest{Server: 9},
		&EnlistServerResponse{Status: StatusOK},
		&ReportCrashRequest{Server: 9},
		&ReportCrashResponse{Status: StatusOK},
		&PingRequest{},
		&PingResponse{Status: StatusOK},
	}
	msgs := make([]*Message, 0, len(bodies))
	for i, b := range bodies {
		msgs = append(msgs, &Message{
			ID:         uint64(i + 1),
			From:       ServerID(rng.Intn(10) + 1),
			To:         ServerID(rng.Intn(10) + 1),
			Op:         b.Op(),
			IsResponse: isResponsePayload(b),
			Priority:   Priority(rng.Intn(int(NumPriorities))),
			Body:       b,
		})
	}
	return msgs
}

// isResponsePayload decides direction from the type name convention used in
// this package's tests.
func isResponsePayload(p Payload) bool {
	name := reflect.TypeOf(p).Elem().Name()
	return len(name) > 8 && name[len(name)-8:] == "Response"
}

func normalizeEmptySlices(v reflect.Value) {
	// Round-tripping maps empty slices to nil (and vice versa); normalize
	// both sides to nil for comparison.
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			normalizeEmptySlices(v.Elem())
		}
	case reflect.Ptr:
		if !v.IsNil() {
			normalizeEmptySlices(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeEmptySlices(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 && v.CanSet() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalizeEmptySlices(v.Index(i))
		}
	}
}

func TestMessageRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range append(sampleMessages(rng), registeredMessages()...) {
		buf := AppendMessage(nil, m)
		got, err := UnmarshalMessage(buf)
		if err != nil {
			t.Fatalf("%v: unmarshal: %v", m.Op, err)
		}
		normalizeEmptySlices(reflect.ValueOf(m))
		normalizeEmptySlices(reflect.ValueOf(got))
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip mismatch:\n got %#v\nwant %#v", m.Op, got.Body, m.Body)
		}
	}
}

// registeredMessages returns one message per registered (op, direction),
// carrying that body's zero value.
func registeredMessages() []*Message {
	var msgs []*Message
	for op := range ops {
		for _, resp := range []bool{false, true} {
			if b := newBody(Op(op), resp); b != nil {
				msgs = append(msgs, &Message{ID: 1, Op: Op(op), IsResponse: resp, Body: b})
			}
		}
	}
	return msgs
}

// TestRegistryBodiesMatchOp checks that each registered constructor builds
// a body of its own op and direction.
func TestRegistryBodiesMatchOp(t *testing.T) {
	for _, m := range registeredMessages() {
		if m.Body.Op() != m.Op || isResponsePayload(m.Body) != m.IsResponse {
			t.Errorf("%v (resp=%v) builds %T", m.Op, m.IsResponse, m.Body)
		}
	}
}

// WireSize presizes marshal buffers and drives the fabric's bandwidth
// model, so it must equal the encoded length exactly.
func TestWireSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range append(sampleMessages(rng), registeredMessages()...) {
		if enc, ws := len(AppendMessage(nil, m)), m.WireSize(); enc != ws {
			t.Errorf("%v (resp=%v): encoded %d bytes but WireSize %d", m.Op, m.IsResponse, enc, ws)
		}
	}
}

// Decoding consumes exactly the bytes encoding wrote, so every strict
// prefix of a frame must fail to decode.
func TestUnmarshalTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range append(sampleMessages(rng), registeredMessages()...) {
		buf := AppendMessage(nil, m)
		for _, cut := range []int{1, len(buf) / 2, len(buf) - 1} {
			if _, err := UnmarshalMessage(buf[:cut]); err == nil && cut < m.WireSize() {
				t.Errorf("%v (resp=%v): no error for truncation at %d/%d", m.Op, m.IsResponse, cut, len(buf))
			}
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalMessage([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short garbage")
	}
	// Unknown opcode.
	m := &Message{ID: 1, Op: Op(200), Body: nil}
	buf := AppendMessage(nil, m)
	if _, err := UnmarshalMessage(buf); err == nil {
		t.Error("expected error for unknown opcode")
	}
	// The retired single-segment replication op keeps its code as a gap:
	// a frame carrying it is an error, and the ops after it did not move.
	retired := OpDropTablet + 1
	if retired+1 != OpGetTabletMap {
		t.Fatalf("reserved op gap moved: OpGetTabletMap = %d", OpGetTabletMap)
	}
	for _, resp := range []bool{false, true} {
		buf := AppendMessage(nil, &Message{ID: 2, Op: retired, IsResponse: resp})
		if _, err := UnmarshalMessage(buf); err == nil {
			t.Errorf("retired op %d (resp=%v) decoded", retired, resp)
		}
	}
}

// encode runs f in encoding mode and checks that sizing mode counts the
// same number of bytes.
func encode(t *testing.T, f func(c *codec)) []byte {
	t.Helper()
	var size codec
	f(&size)
	enc := codec{mode: encoding}
	f(&enc)
	if size.n != len(enc.buf) {
		t.Fatalf("sized %d bytes, encoded %d", size.n, len(enc.buf))
	}
	return enc.buf
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(table uint64, version uint64, key, value []byte, tomb bool) bool {
		r := Record{Table: TableID(table), Version: version, Key: key, Value: value, Tombstone: tomb}
		d := codec{mode: decoding, buf: encode(t, func(c *codec) { record(c, &r) })}
		var got Record
		record(&d, &got)
		if d.err != nil || d.off != len(d.buf) || r.WireSize() != len(d.buf) {
			return false
		}
		return got.Table == r.Table && got.Version == r.Version && got.Tombstone == r.Tombstone &&
			bytes.Equal(got.Key, r.Key) && bytes.Equal(got.Value, r.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncoderDecoderPrimitivesQuick(t *testing.T) {
	f := func(a uint8, b uint32, c uint64, blobIn []byte, vs []uint64) bool {
		fieldsOf := func(cd *codec, a *uint8, b *uint32, c *uint64, bl *[]byte, vs *[]uint64) {
			u8(cd, a)
			u32(cd, b)
			u64(cd, c)
			blob(cd, bl)
			seq(cd, vs)
		}
		buf := encode(t, func(cd *codec) { fieldsOf(cd, &a, &b, &c, &blobIn, &vs) })
		d := codec{mode: decoding, buf: buf}
		var (
			a2 uint8
			b2 uint32
			c2 uint64
			bl []byte
			v2 []uint64
		)
		fieldsOf(&d, &a2, &b2, &c2, &bl, &v2)
		if d.err != nil || a2 != a || b2 != b || c2 != c || !bytes.Equal(bl, blobIn) || len(v2) != len(vs) {
			return false
		}
		for i := range vs {
			if v2[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatusError(t *testing.T) {
	if StatusOK.Error() != nil {
		t.Error("StatusOK should yield nil error")
	}
	err := StatusWrongServer.Error()
	if err == nil {
		t.Fatal("non-OK status should yield error")
	}
	var se StatusError
	if !errorsAs(err, &se) || se.Status != StatusWrongServer {
		t.Errorf("unexpected error %v", err)
	}
}

func errorsAs(err error, target *StatusError) bool {
	se, ok := err.(StatusError)
	if ok {
		*target = se
	}
	return ok
}

func TestOpAndStatusStrings(t *testing.T) {
	if OpPull.String() != "Pull" || OpPriorityPull.String() != "PriorityPull" {
		t.Error("bad op names")
	}
	if Op(250).String() == "" || Status(250).String() == "" {
		t.Error("unknown values must still format")
	}
	if StatusRetry.String() != "Retry" {
		t.Error("bad status name")
	}
	for p := Priority(0); p < NumPriorities; p++ {
		if p.String() == "" {
			t.Errorf("priority %d has no name", p)
		}
	}
}

// Tablet placement and hash-table bucketing use the TOP bits of the key
// hash, so those bits must diffuse even for short sequential keys (raw
// FNV-1a fails this; the murmur finalizer fixes it).
func TestHashKeyTopBitDiffusion(t *testing.T) {
	const n = 4096
	buckets := make([]int, 16)
	for i := 0; i < n; i++ {
		h := HashKey([]byte(fmt.Sprintf("user%010d", i)))
		buckets[h>>60]++
	}
	want := n / len(buckets)
	for b, c := range buckets {
		if c < want/2 || c > want*2 {
			t.Errorf("top-bit bucket %d has %d keys, want ~%d", b, c, want)
		}
	}
}

// Halving the hash space must split sequential keys roughly evenly — the
// property CreateTable's tablet placement relies on.
func TestHashKeySplitsEvenly(t *testing.T) {
	half := FullRange().Split(2)[0]
	lower := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if half.Contains(HashKey([]byte(fmt.Sprintf("key-%06d", i)))) {
			lower++
		}
	}
	if lower < n*4/10 || lower > n*6/10 {
		t.Errorf("lower half got %d of %d sequential keys", lower, n)
	}
}

// TestRecordSizeMatchesWireSize: the arithmetic size agrees with the codec
// for every shape of record.
func TestRecordSizeMatchesWireSize(t *testing.T) {
	for _, r := range []Record{
		{},
		{Table: 7, Version: 9, Key: []byte("k"), Value: []byte("value")},
		{Table: 1, Key: make([]byte, 300), Value: make([]byte, 70000)},
		{Table: 1, Version: 3, Key: []byte("gone"), Tombstone: true},
	} {
		if got, want := RecordSize(len(r.Key), len(r.Value)), r.WireSize(); got != want {
			t.Errorf("RecordSize(%d, %d) = %d, WireSize %d", len(r.Key), len(r.Value), got, want)
		}
	}
}
