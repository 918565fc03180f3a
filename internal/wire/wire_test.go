package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"smoothscan/internal/disk"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xab}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %#02x, want %#02x", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want EOF", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	// A forged length field must be rejected before any allocation of
	// that size happens.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, MsgBatch}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized frame: %v, want ErrMalformed", err)
	}
	// Zero length is malformed too: every frame carries at least a type.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length frame: %v, want ErrMalformed", err)
	}
}

// TestReadFrameBufReusesAndGrows: a large-enough buffer is reused in
// place, a too-small one is replaced, and the oversize check runs
// before the buffer is touched.
func TestReadFrameBufReusesAndGrows(t *testing.T) {
	var stream bytes.Buffer
	WriteFrame(&stream, MsgBatch, []byte("abcdef"))
	WriteFrame(&stream, MsgEnd, []byte("xyz"))
	WriteFrame(&stream, MsgBatch, bytes.Repeat([]byte{7}, 64))
	_, first, err := ReadFrameBuf(&stream, make([]byte, 0, 16))
	if err != nil || string(first) != "abcdef" || cap(first) != 16 {
		t.Fatalf("first frame: %q cap %d err %v, want the 16-byte buffer reused", first, cap(first), err)
	}
	_, second, err := ReadFrameBuf(&stream, first)
	if err != nil || string(second) != "xyz" || &second[0] != &first[0] {
		t.Fatalf("second frame: %q err %v, want it in the first frame's array", second, err)
	}
	_, third, err := ReadFrameBuf(&stream, second)
	if err != nil || len(third) != 64 || third[63] != 7 {
		t.Fatalf("third frame: %d bytes err %v, want a grown 64-byte payload", len(third), err)
	}
	keep := []byte("keep")
	hdr := []byte{0xff, 0xff, 0xff, 0xff, MsgBatch}
	if _, _, err := ReadFrameBuf(bytes.NewReader(hdr), keep); !errors.Is(err, ErrMalformed) || string(keep) != "keep" {
		t.Fatalf("oversized frame: err %v buffer %q, want ErrMalformed and the buffer untouched", err, keep)
	}
}

// TestEndCarriesEveryIOCounter: the End summary's disk.Stats block is
// encoded and decoded field by field. Every field, filled through
// reflect with a distinct non-zero value, must survive the round trip,
// so a counter added to disk.Stats but not to the codec fails here.
func TestEndCarriesEveryIOCounter(t *testing.T) {
	var io disk.Stats
	v := reflect.ValueOf(&io).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("disk.Stats.%s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	got, err := DecodeEnd(End{Summary: ExecSummary{IO: io}}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.IO != io {
		t.Errorf("IO after End round trip = %+v, want %+v", got.Summary.IO, io)
	}
}

// TestDecodedMessagesOutliveThePayload: a connection reuses one payload
// buffer across frames, so no decoder may keep a sub-slice of it. The
// three frames a client decodes mid-stream are decoded, their buffer is
// overwritten, and the decoded values must still be what was sent.
func TestDecodedMessagesOutliveThePayload(t *testing.T) {
	execOK := ExecOK{Cols: []string{"id", "val", "a_rather_longer_column_name"}}
	end := End{Summary: ExecSummary{Rows: 3, PlanCacheHit: true, Degraded: []string{"smooth→full", "full→index"}}}
	errMsg := ErrorMsg{Class: ClassTransient, Msg: "injected transient fault on page 12"}
	scribble := func(p []byte) {
		for i := range p {
			p[i] = 0xee
		}
	}

	p := execOK.Marshal()
	gotOK, err := DecodeExecOK(p)
	scribble(p)
	if err != nil || !reflect.DeepEqual(gotOK, execOK) {
		t.Errorf("ExecOK after its payload was overwritten: %+v (err %v), want %+v", gotOK, err, execOK)
	}

	p = end.Marshal()
	gotEnd, err := DecodeEnd(p)
	scribble(p)
	if err != nil || !reflect.DeepEqual(gotEnd, end) {
		t.Errorf("End after its payload was overwritten: %+v (err %v), want %+v", gotEnd, err, end)
	}

	p = errMsg.Marshal()
	gotErr, err := DecodeError(p)
	scribble(p)
	if err != nil || gotErr != errMsg || gotErr.Err().Error() != errMsg.Err().Error() {
		t.Errorf("Error after its payload was overwritten: %+v (err %v), want %+v", gotErr, err, errMsg)
	}

	var e Encoder
	e.AppendBatch([]int64{1, -2, 3, 4, -5, 6}, 2, 3)
	flat, n, width, err := DecodeBatchPayload(e.B, nil)
	scribble(e.B)
	if err != nil || n != 2 || width != 3 || !reflect.DeepEqual(flat, []int64{1, -2, 3, 4, -5, 6}) {
		t.Errorf("Batch after its payload was overwritten: %v %dx%d (err %v)", flat, n, width, err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	spec := QuerySpec{
		Table: "items",
		Preds: []PredSpec{
			{Col: "i_date", Kind: PredBetween, A: ArgSpec{Lit: 10}, B: ArgSpec{Param: "hi"}},
			{Col: "i_qty", Kind: PredGe, A: ArgSpec{Lit: -3}},
		},
		Joins:    []JoinSpec{{Table: "orders", LeftCol: "i_order", RightCol: "o_id", Opts: OptsSpec{Path: 2}}},
		Select:   []string{"i_id", "o_id"},
		HasSel:   true,
		GroupCol: "o_pri",
		Aggs:     []AggSpec{{Kind: AggSum, Col: "i_qty", As: "total"}, {Kind: AggCount}},
		HasAgg:   true,
		OrderCol: "o_pri",
		HasOrd:   true,
		Limit:    ArgSpec{Lit: 100},
		HasLim:   true,
		Opts:     OptsSpec{Path: 1, Ordered: true, EstimatedRows: 5, SLABound: 1.5, Parallelism: 4},
	}
	cases := []struct {
		name    string
		marshal []byte
		decode  func([]byte) (any, error)
		want    any
	}{
		{"hello", Hello{Magic: Magic, Version: Version}.Marshal(),
			func(p []byte) (any, error) { return DecodeHello(p) }, Hello{Magic: Magic, Version: Version}},
		{"hellook", HelloOK{Version: 7}.Marshal(),
			func(p []byte) (any, error) { return DecodeHelloOK(p) }, HelloOK{Version: 7}},
		{"prepare", Prepare{Spec: spec}.Marshal(),
			func(p []byte) (any, error) { return DecodePrepare(p) }, Prepare{Spec: spec}},
		{"prepareok", PrepareOK{Params: []string{"lo", "hi"}}.Marshal(),
			func(p []byte) (any, error) { return DecodePrepareOK(p) }, PrepareOK{Params: []string{"lo", "hi"}}},
		{"execute", Execute{Spec: spec, Binds: []BindKV{{Name: "lo", Val: -9}, {Name: "hi", Val: math.MaxInt64}}}.Marshal(),
			func(p []byte) (any, error) { return DecodeExecute(p) },
			Execute{Spec: spec, Binds: []BindKV{{Name: "lo", Val: -9}, {Name: "hi", Val: math.MaxInt64}}}},
		{"execute-adhoc", Execute{Spec: spec}.Marshal(),
			func(p []byte) (any, error) { return DecodeExecute(p) }, Execute{Spec: spec, Binds: []BindKV{}}},
		{"execok", ExecOK{Cols: []string{"a", "b"}}.Marshal(),
			func(p []byte) (any, error) { return DecodeExecOK(p) }, ExecOK{Cols: []string{"a", "b"}}},
		{"end-summary", End{Summary: ExecSummary{Rows: 4, Retries: 1, FaultsSeen: 2, PlanCacheHit: true, Degraded: []string{"parallel->serial"}}}.Marshal(),
			func(p []byte) (any, error) { return DecodeEnd(p) },
			End{Summary: ExecSummary{Rows: 4, Retries: 1, FaultsSeen: 2, PlanCacheHit: true, Degraded: []string{"parallel->serial"}}}},
		{"error", ErrorMsg{Class: ClassCorrupt, Msg: "page 7"}.Marshal(),
			func(p []byte) (any, error) { return DecodeError(p) }, ErrorMsg{Class: ClassCorrupt, Msg: "page 7"}},
		{"stats", ServerStats{SessionsOpen: 1, QueriesServed: 2, RowsSent: 3, DeviceSimCost: 4.5, PlanCacheHits: 6}.Marshal(),
			func(p []byte) (any, error) { return DecodeServerStats(p) },
			ServerStats{SessionsOpen: 1, QueriesServed: 2, RowsSent: 3, DeviceSimCost: 4.5, PlanCacheHits: 6}},
		{"faultctl", FaultCtl{Seed: -5, Rules: []FaultRuleSpec{{Kind: 2, Rate: 0.25, ExtraCost: 50}}}.Marshal(),
			func(p []byte) (any, error) { return DecodeFaultCtl(p) },
			FaultCtl{Seed: -5, Rules: []FaultRuleSpec{{Kind: 2, Rate: 0.25, ExtraCost: 50}}}},
	}
	for _, tc := range cases {
		got, err := tc.decode(tc.marshal)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: round trip mismatch:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
		// Trailing garbage after a well-formed message is malformed.
		if _, err := tc.decode(append(append([]byte{}, tc.marshal...), 0x00)); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.name)
		}
	}
}

// TestAppendToMatchesMarshal: each request a client sends mid-session
// appends exactly its Marshal payload after whatever the buffer holds,
// and appending into a buffer with room allocates nothing, so a Conn
// encodes every request into one reused buffer.
func TestAppendToMatchesMarshal(t *testing.T) {
	spec := QuerySpec{Table: "t", Preds: []PredSpec{{Col: "v", Kind: PredBetween, A: ArgSpec{Param: "lo"}, B: ArgSpec{Param: "hi"}}}}
	exec := Execute{Spec: spec, Binds: []BindKV{{Name: "lo", Val: -3}, {Name: "hi", Val: 9}}}
	fault := FaultCtl{Seed: 7, Rules: []FaultRuleSpec{{Kind: 1, Rate: 0.5, ExtraCost: 3}}}
	cases := []struct {
		name     string
		appendTo func([]byte) []byte
		marshal  []byte
	}{
		{"prepare", Prepare{Spec: spec}.AppendTo, Prepare{Spec: spec}.Marshal()},
		{"execute", exec.AppendTo, exec.Marshal()},
		{"faultctl", fault.AppendTo, fault.Marshal()},
	}
	prefix := []byte("earlier bytes")
	for _, tc := range cases {
		buf := append(make([]byte, 0, 256), prefix...)
		got := tc.appendTo(buf)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], tc.marshal) {
			t.Fatalf("%s: AppendTo gave %x, want %x then %x", tc.name, got, prefix, tc.marshal)
		}
		if n := testing.AllocsPerRun(100, func() { buf = tc.appendTo(buf[:0]) }); n != 0 {
			t.Fatalf("%s: AppendTo into a buffer with room allocates %v times", tc.name, n)
		}
	}
}

// TestU32OverflowIsMalformed: a uint32 field travels as a uvarint. A
// forged value past MaxUint32 must be refused as malformed, not
// truncated: 2^32+7 in a Hello would otherwise arrive as version 7.
// Version 6's Execute ended in a window size, which a version 7 decoder
// reads as trailing bytes.
func TestU32OverflowIsMalformed(t *testing.T) {
	magic := binary.AppendUvarint(nil, uint64(Magic))
	if _, err := DecodeHello(binary.AppendUvarint(magic, math.MaxUint32+1+uint64(Version))); !errors.Is(err, ErrMalformed) {
		t.Errorf("Hello carrying version 2^32+%d: %v, want ErrMalformed", Version, err)
	}
	if m, err := DecodeHello(binary.AppendUvarint(magic, math.MaxUint32)); err != nil || m.Version != math.MaxUint32 {
		t.Errorf("Hello{Version: MaxUint32} decoded as %+v, %v, want it accepted", m, err)
	}
	v6 := binary.AppendUvarint(binary.AppendUvarint(Prepare{Spec: QuerySpec{Table: "t"}}.Marshal(), 0), 4096)
	if _, err := DecodeExecute(v6); !errors.Is(err, ErrMalformed) {
		t.Errorf("version 6 Execute with a window size: %v, want ErrMalformed", err)
	}
}

func TestErrorClassPreservation(t *testing.T) {
	named := map[byte]bool{}
	for _, row := range classes {
		first := !named[row.class]
		named[row.class] = true
		if first && row.name == "" || !first && row.name != "" {
			t.Errorf("class %#02x: name %q; a class's first row names it and only that row", row.class, row.name)
		}
		if row.sentinel == nil {
			continue
		}
		// Server-side, the sentinel (wrapped, as the engine returns
		// it) classifies to its row's class.
		if got := Classify(fmt.Errorf("query: %w", row.sentinel)); got != row.class {
			t.Errorf("Classify(%v) = %s, want %s", row.sentinel, ClassName(got), ClassName(row.class))
		}
		// Client-side, the frame unwraps to the sentinel — unless the
		// row is one-way, and then the class is not lost but unwraps
		// to its first row's sentinel.
		err := ErrorMsg{Class: row.class, Msg: "x"}.Err()
		if errors.Is(err, row.sentinel) != first {
			t.Errorf("class %s unwraps to %v: %v, want %v", ClassName(row.class), row.sentinel, !first, first)
		}
		// A round-trip class survives a relay: Classify of the frame's
		// own error yields the class the frame carried.
		if got := Classify(err); first && got != row.class {
			t.Errorf("Classify(%v) = %s, want %s", err, ClassName(got), ClassName(row.class))
		}
	}
	// The bytes older peers speak keep their meaning: each unwraps to
	// what it always did.
	for class, want := range map[byte]error{
		ClassInternal: nil, ClassBadRequest: nil, ClassNotFound: nil,
		ClassOverloaded: ErrOverloaded, ClassCancelled: context.Canceled, ClassIdle: ErrSessionClosed,
		ClassTransient: disk.ErrInjected, ClassPermanent: disk.ErrPermanentFault, ClassCorrupt: disk.ErrPageCorrupt,
		ClassUnbound: ErrUnboundParam, ClassUnknown: ErrUnknownParam,
	} {
		if got := (&RemoteError{Class: class}).Unwrap(); got != want {
			t.Errorf("class %s unwraps to %v, want %v", ClassName(class), got, want)
		}
	}
	// A byte no row carries renders by number and unwraps to nil.
	for _, class := range []byte{0x10, 0x7f, 0xff} {
		if named[class] {
			t.Fatalf("class %#02x is assigned; pick an unassigned byte", class)
		}
		re := &RemoteError{Class: class, Msg: "x"}
		if want := fmt.Sprintf("remote (class-%#02x): x", class); re.Error() != want || re.Unwrap() != nil {
			t.Errorf("unassigned class: %q unwrapping to %v, want %q and nil", re.Error(), re.Unwrap(), want)
		}
	}
	// Transient injected faults must be recognisable through wrapping,
	// the property client-side retry loops depend on.
	remote := ErrorMsg{Class: ClassTransient, Msg: "injected"}.Err()
	if !disk.IsTransient(remote) {
		t.Fatal("remote transient fault not recognised by disk.IsTransient")
	}
	if disk.IsTransient(ErrorMsg{Class: ClassPermanent, Msg: "x"}.Err()) {
		t.Fatal("remote permanent fault misclassified as transient")
	}
}

// TestDecodeMessageUnknownType: a frame type no message has is a
// malformed frame, not an error the peer sent.
func TestDecodeMessageUnknownType(t *testing.T) {
	for _, typ := range []byte{0x00, 0x0b, 0x0e, 0x15, 0xff} {
		v, err := DecodeMessage(typ, nil)
		var re *RemoteError
		if v != nil || !errors.Is(err, ErrMalformed) || errors.As(err, &re) {
			t.Errorf("type %#02x: %v, %v; want ErrMalformed and no RemoteError", typ, v, err)
		}
	}
}
