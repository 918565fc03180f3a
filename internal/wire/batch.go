package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Batch frame codec: column-major frame-of-reference bit-packing
// (Lemire and Boytsov, "Decoding billions of integers per second
// through vectorization"). The payload is
//
//	uvarint rows | uvarint width | column 0 | … | column width-1 | 7 zero bytes
//
// and each column is
//
//	ref varint | bits u8 | packed bytes
//
// The packed slots are the column's values minus ref, its minimum,
// bits wide, least significant bit first, in ceil(rows*bits/8) bytes.
// bits is 0..56 or 64: up to 56, any slot lies within the 8 bytes from
// its first byte, and the payload ends in 7 zero bytes, so the decoder
// reads every slot with one unaligned load, a shift and a mask. All
// arithmetic wraps, so any int64 column round-trips. The flat row-major
// []int64 the engine hands us is strided in place, no transpose buffer.

// Batch decode bounds. A frame announcing more is malformed — the
// limits keep a forged header from turning into a giant allocation.
const (
	maxBatchWidth = 4096
	maxBatchRows  = 65536
	maxBatchCells = 1 << 22
)

// maxFastBits is the widest slot one unaligned 8-byte load always
// covers: a slot starts at most 7 bits into its first byte.
const maxFastBits = 56

// batchPad is the zero bytes that end a payload, so the 8-byte load of
// its last slot stays inside it.
const batchPad = 7

// packWidth is the slot width of a column whose packed values span
// [0, span]: 57..63 round up to 64, whose slots are whole words.
func packWidth(span uint64) int {
	w := bits.Len64(span)
	if w > maxFastBits {
		w = 64
	}
	return w
}

// packedLen is the byte length of n slots of w bits.
func packedLen(n, w int) int { return (n*w + 7) / 8 }

// AppendBatch serialises nRows rows of width columns from the row-major
// flat slice (len >= nRows*width) as a Batch payload.
func (e *Encoder) AppendBatch(flat []int64, nRows, width int) {
	e.Uvarint(uint64(nRows))
	e.Uvarint(uint64(width))
	for c := 0; c < width; c++ {
		if nRows == 0 {
			e.B = append(e.B, 0, 0) // ref 0, bits 0
			continue
		}
		e.appendColumn(flat[c:], nRows, width)
	}
	e.B = append(e.B, make([]byte, batchPad)...)
}

// appendColumn encodes the column of nRows >= 1 values col[r*stride].
func (e *Encoder) appendColumn(col []int64, nRows, stride int) {
	end := nRows * stride
	lo, hi := columnRange(col, end, stride)
	w := packWidth(uint64(hi - lo))
	e.Varint(lo)
	e.B = append(e.B, byte(w))
	if w == 0 {
		return
	}
	// packValues appends whole words and returns the partial last one,
	// which is appended whole and cut back to the packed length.
	n := len(e.B) + packedLen(nRows, w)
	b, last := packValues(slices.Grow(e.B, n-len(e.B)+8), col, end, stride, w, lo)
	e.B = binary.LittleEndian.AppendUint64(b, last)[:n]
}

// columnRange is the minimum and maximum of col[i], i in [0, end) step
// stride.
func columnRange(col []int64, end, stride int) (lo, hi int64) {
	lo, hi = col[0], col[0]
	for i := stride; i < end; i += stride {
		lo, hi = min(lo, col[i]), max(hi, col[i])
	}
	return lo, hi
}

// packValues appends the w-bit slots col[i]-ref, i in [0, end) step
// stride, to b a 64-bit word at a time, and returns the partial last
// word. Shift counts are masked to 63 only to spare the compiler its
// out-of-range guard: nb is below 64 where it shifts, and the carry
// (u>>1)>>(w-nb-1) is u>>(w-nb), which is 0 when w-nb is 64.
func packValues(b []byte, col []int64, end, stride, w int, ref int64) ([]byte, uint64) {
	var acc uint64
	nb := 0
	for i := 0; i < end; i += stride {
		u := uint64(col[i] - ref)
		acc |= u << (nb & 63)
		nb += w
		if nb >= 64 {
			b = binary.LittleEndian.AppendUint64(b, acc)
			nb -= 64
			acc = u >> 1 >> ((w - nb - 1) & 63)
		}
	}
	return b, acc
}

// parseColumn parses the column header at p[off:] of a batch of nRows
// rows and steps over its packed bytes: it returns the column's ref and
// bit width, the offset of its packed bytes and the offset past them.
// A header the encoder cannot produce, or packed bytes that leave no
// room for the payload's padding, yield a reason instead. It reads the
// bytes directly, not through a Decoder: a batch of few rows is mostly
// headers.
func parseColumn(p []byte, off, nRows int) (ref int64, w, packed, next int, bad string) {
	ref, n := binary.Varint(p[off:])
	if n <= 0 {
		return 0, 0, 0, 0, "bad batch column reference"
	}
	if off += n; off >= len(p) {
		return 0, 0, 0, 0, "truncated batch column"
	}
	w = int(p[off])
	off++
	if w > maxFastBits && w != 64 {
		return 0, 0, 0, 0, "batch column bit width out of range"
	}
	if next = off + packedLen(nRows, w); next > len(p)-batchPad {
		return 0, 0, 0, 0, "truncated batch column"
	}
	return ref, w, off, next, ""
}

// DecodeBatchPayload parses a Batch payload into a row-major flat
// slice, reusing buf's backing array when it is large enough. It
// returns the flat values, the row count, and the column width. When
// buf is too small, every column header is validated, and the payload
// must hold exactly the bytes they announce and the padding, before the
// output is allocated; into a large enough buf the columns decode in the
// same pass that validates them.
func DecodeBatchPayload(p []byte, buf []int64) ([]int64, int, int, error) {
	d := Decoder{b: p}
	nRows := int(d.Uvarint())
	width := int(d.Uvarint())
	if d.Err != nil {
		return nil, 0, 0, d.Err
	}
	if nRows < 0 || width < 0 || nRows > maxBatchRows || width > maxBatchWidth || nRows*width > maxBatchCells {
		return nil, 0, 0, ErrMalformed
	}
	n := nRows * width
	if cap(buf) < n {
		if err := decodeColumns(nil, p, d.off, nRows, width); err != nil {
			return nil, 0, 0, err
		}
		buf = make([]int64, n)
	}
	flat := buf[:n]
	if err := decodeColumns(flat, p, d.off, nRows, width); err != nil {
		return nil, 0, 0, err
	}
	return flat, nRows, width, nil
}

// decodeColumns parses the width column headers from p[off:], and the
// padding that ends p, and, unless flat is nil, decodes each column into
// it.
func decodeColumns(flat []int64, p []byte, off, nRows, width int) error {
	for c := 0; c < width; c++ {
		ref, w, packed, next, bad := parseColumn(p, off, nRows)
		if bad != "" {
			return fmt.Errorf("%w: %s at offset %d", ErrMalformed, bad, off)
		}
		if flat != nil && nRows > 0 {
			// The slots are read up to the payload's end, past their own.
			unpackValues(flat[c:], width, p[packed:], nRows, w, ref)
		}
		off = next
	}
	if len(p)-off != batchPad || [batchPad]byte(p[off:]) != [batchPad]byte{} {
		return fmt.Errorf("%w: batch payload does not end in %d zero bytes", ErrMalformed, batchPad)
	}
	return nil
}

// unpackValues writes ref plus each of the n w-bit slots of packed to
// out, stride apart.
func unpackValues(out []int64, stride int, packed []byte, n, w int, ref int64) {
	if w == 0 {
		for i := 0; i < n*stride; i += stride {
			out[i] = ref
		}
		return
	}
	mask := ^uint64(0) >> ((64 - w) & 63)
	for i, bit := 0, 0; i < n*stride; i, bit = i+stride, bit+w {
		o := bit >> 3
		out[i] = ref + int64(binary.LittleEndian.Uint64(packed[o:o+8])>>(bit&7)&mask)
	}
}
