package client

import (
	"bufio"
	"bytes"
	"net"
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
