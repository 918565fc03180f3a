package client

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	"smoothscan/internal/wire"
)

// TestRecvDropsOversizedPayloadBuffer: the frame buffer recv reuses
// must not become a way for a peer to pin memory. A frame may be as
// large as wire.MaxFrame; the buffer one such frame grew is not kept
// past it, and ordinary frames afterwards reuse a small one again.
func TestRecvDropsOversizedPayloadBuffer(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	c := &Conn{conn: near, br: bufio.NewReader(near), bw: bufio.NewWriter(near)}

	small := bytes.Repeat([]byte{1}, 100)
	huge := bytes.Repeat([]byte{2}, maxKeptPayload+1)
	go func() {
		for _, p := range [][]byte{small, huge, small, nil, small} {
			if wire.WriteFrame(far, wire.MsgBatch, p) != nil {
				return
			}
		}
	}()

	recv := func(want []byte) []byte {
		t.Helper()
		_, got, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload of %d bytes, want %d", len(got), len(want))
		}
		return got
	}
	recv(small)
	kept := cap(c.payload)
	if kept < len(small) || kept > maxKeptPayload {
		t.Fatalf("after a small frame the Conn keeps %d bytes, want the frame's buffer", kept)
	}
	recv(huge)
	if c.payload != nil {
		t.Fatalf("after a %d-byte frame the Conn keeps %d bytes, want none", len(huge), cap(c.payload))
	}
	first := recv(small)
	recv(nil) // an empty frame neither uses nor loses the buffer
	second := recv(small)
	if &first[0] != &second[0] {
		t.Error("two small frames did not share one buffer")
	}
}

// nobody is an Owner for streams no Conn.Close cuts.
type nobody struct{}

func (nobody) Cut(error) {}

// TestConnDropsOversizedDecodeBuffer: the decode and request buffers a
// Conn keeps from one stream to the next are bounded like recv's payload
// buffer. A first query's Execute is larger than maxKeptPayload, and a
// fake server answers it with one legal Batch frame that decodes to more
// than maxKeptPayload bytes, then a second, short query with three short
// rows: the Conn keeps no buffer past the big frames, and the second
// stream's rows are intact.
func TestConnDropsOversizedDecodeBuffer(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	c := &Conn{conn: near, br: bufio.NewReader(near), bw: bufio.NewWriter(near)}

	const bigRows, bigCols = 1100, 128 // 140 800 values, 1.1 MB decoded
	big := make([]int64, bigRows*bigCols)
	for i := range big {
		big[i] = int64(i % 7)
	}
	bigNames := make([]string, bigCols)
	for i := range bigNames {
		bigNames[i] = fmt.Sprintf("c%d", i)
	}
	small := []int64{1, 10, 2, 20, 3, 30}
	go func() {
		for _, res := range []struct {
			cols []string
			flat []int64
		}{{bigNames, big}, {[]string{"id", "val"}, small}} {
			if _, _, err := wire.ReadFrame(far); err != nil {
				return
			}
			var e wire.Encoder
			e.AppendBatch(res.flat, len(res.flat)/len(res.cols), len(res.cols))
			for _, f := range []struct {
				typ     byte
				payload []byte
			}{
				{wire.MsgExecOK, wire.ExecOK{Cols: res.cols}.Marshal()},
				{wire.MsgBatch, e.B},
				{wire.MsgEnd, wire.End{Summary: wire.ExecSummary{Rows: int64(len(res.flat) / len(res.cols))}}.Marshal()},
			} {
				if wire.WriteFrame(far, f.typ, f.payload) != nil {
					return
				}
			}
		}
	}()

	drain := func(table string) (rows []int64, sum wire.ExecSummary) {
		t.Helper()
		var s Stream
		if err := c.ExecuteSpec(context.Background(), wire.QuerySpec{Table: table}, nil, &s, nobody{}); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for {
			flat, err := s.Next(&sum)
			if err != nil {
				t.Fatal(err)
			}
			if flat == nil {
				return rows, sum
			}
			rows = append(rows, flat...)
		}
	}
	rows, sum := drain(strings.Repeat("t", maxKeptPayload+1))
	if len(rows) != len(big) || sum.Rows != bigRows {
		t.Fatalf("first stream: %d values, summary %d rows; want %d values, %d rows", len(rows), sum.Rows, len(big), bigRows)
	}
	if kept := 8 * cap(c.flat); kept > maxKeptPayload {
		t.Fatalf("after a %d-byte decoded frame the Conn keeps a %d-byte decode buffer, cap is %d", 8*len(big), kept, maxKeptPayload)
	}
	if kept := cap(c.req); kept > maxKeptPayload {
		t.Fatalf("after a %d-byte request the Conn keeps a %d-byte request buffer, cap is %d", maxKeptPayload+1, kept, maxKeptPayload)
	}
	rows, sum = drain("t")
	if !slices.Equal(rows, small) || sum.Rows != 3 {
		t.Fatalf("second stream: values %v, summary %d rows; want %v, 3 rows", rows, sum.Rows, small)
	}
	if kept := 8 * cap(c.flat); kept > maxKeptPayload {
		t.Fatalf("the Conn keeps a %d-byte decode buffer, cap is %d", kept, maxKeptPayload)
	}
	if cap(c.req) == 0 {
		t.Fatal("the Conn keeps no request buffer after a short request")
	}
}
