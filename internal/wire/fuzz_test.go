package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeMessage drives every payload decoder with arbitrary bytes.
// The contract under test: whatever arrives, decoding returns a value
// or an error — it never panics, and it never allocates proportionally
// to a forged length field (the Count/bounds checks fail first). A
// Batch allocates at most maxBatchCells cells, and only after every
// column header has been validated against the payload.
func FuzzDecodeMessage(f *testing.F) {
	spec := QuerySpec{
		Table:  "t",
		Preds:  []PredSpec{{Col: "val", Kind: PredBetween, A: ArgSpec{Lit: 1}, B: ArgSpec{Param: "hi"}}},
		Joins:  []JoinSpec{{Table: "d", LeftCol: "val", RightCol: "d_id"}},
		Aggs:   []AggSpec{{Kind: AggSum, Col: "val", As: "s"}},
		HasAgg: true, GroupCol: "g",
		Limit: ArgSpec{Lit: 10}, HasLim: true,
		Opts: OptsSpec{Path: 1, Parallelism: 2},
	}
	// Shapes no builder produces: kind bytes past the last defined
	// value decode fine here (the codec does not interpret them) and
	// must be refused by whoever binds the spec — internal/server's
	// TestBadRequests sends the same three and expects bad-request.
	hostile := QuerySpec{
		Table: "t",
		Preds: []PredSpec{
			{Col: "val", Kind: PredGe + 1, A: ArgSpec{Lit: 1}},
			{Col: "val", Kind: PredEq, A: ArgSpec{Param: "a|b"}},
		},
		Aggs:   []AggSpec{{Kind: AggMax + 1, Col: "val", As: "x"}},
		HasAgg: true, GroupCol: "g",
	}
	var batch Encoder
	batch.AppendBatch([]int64{1, -2, 3, 4, -5, 6}, 2, 3)
	seeds := []struct {
		typ     byte
		payload []byte
	}{
		{MsgHello, Hello{Magic: Magic, Version: Version}.Marshal()},
		{MsgHelloOK, HelloOK{Version: 1}.Marshal()},
		{MsgPrepare, Prepare{Spec: spec}.Marshal()},
		{MsgPrepareOK, PrepareOK{Params: []string{"hi"}}.Marshal()},
		{MsgExecute, Execute{Spec: spec, Binds: []BindKV{{Name: "hi", Val: 42}}}.Marshal()},
		{MsgExecOK, ExecOK{Cols: []string{"id", "val"}}.Marshal()},
		{MsgBatch, batch.B},
		{MsgEnd, End{Summary: ExecSummary{Rows: 2, PlanCacheHit: true, Degraded: []string{"a"}}}.Marshal()},
		{MsgError, ErrorMsg{Class: ClassTransient, Msg: "injected"}.Marshal()},
		{MsgOK, nil},
		{MsgExecute, Execute{Spec: spec}.Marshal()},
		{MsgExecute, Execute{Spec: hostile}.Marshal()},
		// Version 6's Execute, which ended in a window size: trailing
		// bytes to a version 7 decoder, so malformed.
		{MsgExecute, binary.AppendUvarint(binary.AppendUvarint(Prepare{Spec: spec}.Marshal(), 0), 4096)},
		// Version 6's End{More}, a lone true flag that closed a window:
		// a summary cut short to a version 7 decoder, so malformed.
		{MsgEnd, []byte{1}},
		// Version 3's ad-hoc Query and version 6's Fetch: their types
		// are retired, whatever they carry.
		{0x0e, binary.AppendUvarint(Prepare{Spec: spec}.Marshal(), 4096)},
		{0x07, binary.AppendUvarint(nil, 1024)},
		{MsgPrepare, Prepare{Spec: hostile}.Marshal()},
		{MsgStatsReply, ServerStats{QueriesServed: 1}.Marshal()},
		{MsgFaultCtl, FaultCtl{Seed: 1, Rules: []FaultRuleSpec{{Kind: 0, Rate: 0.5}}}.Marshal()},
	}
	for _, s := range seeds {
		f.Add(s.typ, s.payload)
	}
	// Batches of width 0 and 64, and forged ones: widths 57..63 and
	// 65..255, a column one byte short, missing or wrong padding.
	for _, b := range handBatches() {
		f.Add(MsgBatch, b.p)
	}
	reused := make([]int64, 4096)
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		payload = slices.Clip(payload) // no spare capacity to read past the end into
		v, err := DecodeMessage(typ, payload)
		if typ == MsgBatch {
			// A batch decoded into a large enough buffer, where the
			// columns decode in the pass that validates them, must
			// match the fresh decode, error for error.
			flat, _, _, rerr := DecodeBatchPayload(payload, reused)
			if (err == nil) != (rerr == nil) || (err == nil && !slices.Equal(flat, v.(BatchFrame).Flat)) {
				t.Fatalf("batch into a reused buffer: %v, fresh: %v", rerr, err)
			}
		}
		if err != nil {
			return
		}
		// A payload that decoded must re-decode to the same result:
		// decoding is deterministic and does not retain the input.
		clone := append([]byte(nil), payload...)
		if _, err2 := DecodeMessage(typ, clone); err2 != nil {
			t.Fatalf("decode succeeded then failed on identical bytes: %v (value %T)", err2, v)
		}
	})
}

// FuzzErrorFrame sends any class byte and message through an Error
// frame. It must decode and render; its error must unwrap to a sentinel
// of the class table or to nil; and a server relaying it must classify
// it back to the class it carried whenever it unwraps to a sentinel
// (to ClassInternal when it does not).
func FuzzErrorFrame(f *testing.F) {
	for _, row := range classes {
		f.Add(row.class, row.name)
	}
	f.Add(byte(0x10), "")
	f.Add(byte(0xff), "remote (internal): \x00")
	f.Fuzz(func(t *testing.T, class byte, msg string) {
		v, err := DecodeMessage(MsgError, ErrorMsg{Class: class, Msg: msg}.Marshal())
		if err != nil {
			t.Fatalf("Error frame {%#02x, %q} does not decode: %v", class, msg, err)
		}
		m := v.(ErrorMsg)
		if m.Class != class || m.Msg != msg {
			t.Fatalf("Error frame {%#02x, %q} decoded as {%#02x, %q}", class, msg, m.Class, m.Msg)
		}
		rerr := m.Err()
		if !strings.HasSuffix(rerr.Error(), msg) {
			t.Fatalf("%q does not render its message %q", rerr.Error(), msg)
		}
		sentinel := errors.Unwrap(rerr)
		want := ClassInternal
		if sentinel != nil {
			want = class
			if !slices.ContainsFunc(classes[:], func(r classRow) bool { return r.sentinel == sentinel }) {
				t.Fatalf("class %#02x unwraps to %v, which no row of the table carries", class, sentinel)
			}
		}
		if got := Classify(rerr); got != want {
			t.Fatalf("class %#02x (unwrapping to %v) classifies as %s, want %s", class, sentinel, ClassName(got), ClassName(want))
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the framing layer;
// headers announcing absurd lengths must fail without allocating, and
// the owned-payload entry (ReadFrame) and the reused-buffer entry
// (ReadFrameBuf fed its previous payload) must read the same frames.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgOK, nil)
	WriteFrame(&buf, MsgEnd, End{Summary: ExecSummary{Rows: 16}}.Marshal())
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r, rr := bytes.NewReader(stream), bytes.NewReader(stream)
		var reused []byte
		for {
			typ, payload, err := ReadFrame(r)
			rtyp, rpayload, rerr := ReadFrameBuf(rr, reused)
			if typ != rtyp || !bytes.Equal(payload, rpayload) || (payload == nil) != (rpayload == nil) ||
				(err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
				t.Fatalf("ReadFrame = (%#02x, %d bytes, %v), with a reused buffer (%#02x, %d bytes, %v)",
					typ, len(payload), err, rtyp, len(rpayload), rerr)
			}
			if err != nil {
				return
			}
			if len(payload)+1 > MaxFrame {
				t.Fatalf("frame type %#02x exceeds MaxFrame with %d payload bytes", typ, len(payload))
			}
			if rpayload != nil {
				reused = rpayload
			}
		}
	})
}
