package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// roundTrip encodes flat as nRows x width, decodes it, and fails t
// unless the cells come back unchanged. It returns the payload.
func roundTrip(t *testing.T, name string, flat []int64, nRows, width int) []byte {
	t.Helper()
	var e Encoder
	e.AppendBatch(flat, nRows, width)
	// Clipped, as a frame read off the wire is: a load past the
	// payload's end must panic, not read spare capacity.
	got, rows, w, err := DecodeBatchPayload(slices.Clip(e.B), nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rows != nRows || w != width {
		t.Fatalf("%s: decoded %dx%d, want %dx%d", name, rows, w, nRows, width)
	}
	if !slices.Equal(got, flat[:nRows*width]) {
		t.Fatalf("%s: cells changed in the round trip", name)
	}
	return e.B
}

// firstWidth is the bit width in the header of a payload's first
// column.
func firstWidth(t *testing.T, p []byte) int {
	t.Helper()
	d := Decoder{b: p}
	nRows := int(d.Uvarint())
	d.Uvarint() // width
	_, w, _, _, bad := parseColumn(p, d.off, nRows)
	if d.Err != nil || bad != "" {
		t.Fatal(d.Err, bad)
	}
	return w
}

func TestBatchRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, width int }{
		{0, 3}, {1, 1}, {1, 5}, {2, 1}, {7, 4}, {1024, 10}, {65536, 1},
	} {
		flat := make([]int64, tc.rows*tc.width)
		for i := range flat {
			flat[i] = int64((i*2654435761)%1000) - 500
		}
		if tc.rows > 0 {
			flat[0] = math.MinInt64
			flat[len(flat)-1] = math.MaxInt64
		}
		roundTrip(t, "mixed", flat, tc.rows, tc.width)
	}

	// Every span width: the column takes the values ref and
	// ref+2^w-1 and random ones between. Widths 57..63 pack as 64.
	rng := rand.New(rand.NewSource(1))
	const rows = 101 // odd, so the packed bits rarely end on a word
	for w := 0; w <= 64; w++ {
		top := ^uint64(0) >> (64 - w)
		if w == 0 {
			top = 0
		}
		vals := make([]int64, rows)
		for r := range vals {
			var slot uint64
			switch r % 3 {
			case 1:
				slot = top
			case 2:
				slot = rng.Uint64() & top
			}
			vals[r] = -12345 + int64(slot)
		}
		if got := firstWidth(t, roundTrip(t, "width", vals, rows, 1)); got != packWidth(top) {
			t.Errorf("values of width %d packed in %d bits", w, got)
		}
	}

	// A constant column packs to nothing: rows (2 bytes), width, then
	// ref and a width of 0, and the 7 bytes of padding.
	constant := slices.Repeat([]int64{-42}, 1000)
	if p := roundTrip(t, "constant", constant, 1000, 1); len(p) != 12 {
		t.Errorf("a constant column took %d payload bytes, want 12", len(p))
	}
	// A sorted id column with gaps packs in the bits of its span.
	ids := make([]int64, 1024)
	ids[0] = 1 << 40
	for r := 1; r < len(ids); r++ {
		ids[r] = ids[r-1] + 1 + int64(rng.Intn(8))
	}
	if got, want := firstWidth(t, roundTrip(t, "ids", ids, len(ids), 1)), bits.Len64(uint64(ids[len(ids)-1]-ids[0])); got != want {
		t.Errorf("sorted ids packed in %d bits, want %d", got, want)
	}
	// Adjacent extremes: the difference of neighbours overflows int64.
	for _, col := range [][]int64{
		{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
		{0, math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64},
		{math.MaxInt64, math.MinInt64, 1, math.MaxInt64 - 1, math.MinInt64 + 1},
	} {
		roundTrip(t, "extremes", col, len(col), 1)
	}
}

// FuzzBatchRoundTrip: any int64 cells encode and decode unchanged.
// The first byte picks the width and how far every cell is shifted
// right, so the fuzzer reaches narrow columns as well as 64-bit ones.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x31, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{0x20}, 1<<63), 1<<63-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width, shift := 1+int(data[0]&7), data[0]>>3
		var flat []int64
		for b := data[1:]; len(b) > 0; b = b[min(8, len(b)):] {
			var word [8]byte
			copy(word[:], b)
			flat = append(flat, int64(binary.LittleEndian.Uint64(word[:]))>>shift)
		}
		nRows := len(flat) / width
		roundTrip(t, "fuzz", flat, nRows, width)
	})
}

// A column as the encoder would write it, from its parts.
func batchCol(ref int64, w byte, packed []byte) []byte {
	return append(append(binary.AppendVarint(nil, ref), w), packed...)
}

// batchOf is a payload of nRows rows carrying the given columns.
func batchOf(nRows int, cols ...[]byte) []byte {
	return slices.Clip(append(unpadded(nRows, cols...), make([]byte, batchPad)...))
}

// unpadded is batchOf without the padding.
func unpadded(nRows int, cols ...[]byte) []byte {
	p := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(nRows)), uint64(len(cols)))
	for _, c := range cols {
		p = append(p, c...)
	}
	return p
}

// handBatch is one hand-built Batch payload and whether it is valid.
type handBatch struct {
	name  string
	p     []byte
	valid bool
}

// handBatches are frames the encoder writes — width 0 and width 64
// among them — and frames it never writes, which must be refused.
func handBatches() []handBatch {
	word := binary.LittleEndian.AppendUint64(nil, math.MaxUint64)
	three := batchCol(-5, 2, []byte{0b100100})
	cases := []handBatch{
		{"values", batchOf(3, three), true},
		{"width 0", batchOf(4, batchCol(9, 0, nil), batchCol(-1, 0, nil)), true},
		{"width 64", batchOf(1, batchCol(math.MinInt64, 64, word)), true},
		{"no rows", batchOf(0, batchCol(0, 0, nil)), true},
		{"one byte short", batchOf(3, batchCol(0, 8, []byte{1, 2})), false},
		{"one byte long", batchOf(3, batchCol(0, 8, []byte{1, 2, 3, 4})), false},
		{"no header", batchOf(2, nil), false},
		{"no bits", batchOf(2, binary.AppendVarint(nil, 7)), false},
		{"overlong ref", batchOf(1, bytes.Repeat([]byte{0xff}, 11)), false},
		{"ref to the end", slices.Clip(unpadded(1, append(bytes.Repeat([]byte{0x80}, 6), 1))), false},
		{"no padding", slices.Clip(unpadded(3, three)), false},
		{"padding one byte short", slices.Clip(append(unpadded(3, three), make([]byte, batchPad-1)...)), false},
		{"padding one byte long", slices.Clip(append(unpadded(3, three), make([]byte, batchPad+1)...)), false},
		{"nonzero padding", slices.Clip(append(unpadded(1, batchCol(0, 0, nil)), 0, 0, 0, 1, 0, 0, 0)), false},
	}
	for w := 57; w <= 255; w++ {
		if w == 64 {
			continue
		}
		packed := make([]byte, packedLen(1, w))
		cases = append(cases, handBatch{"forged width", batchOf(1, batchCol(0, byte(w), packed)), false})
	}
	return cases
}

func TestBatchDecodeBounds(t *testing.T) {
	var e Encoder
	e.Uvarint(uint64(maxBatchRows + 1))
	e.Uvarint(1)
	if _, _, _, err := DecodeBatchPayload(e.B, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized rows: %v, want ErrMalformed", err)
	}
	e = Encoder{}
	e.Uvarint(16) // claims 16 rows x 1 col, but carries no cells
	e.Uvarint(1)
	if _, _, _, err := DecodeBatchPayload(e.B, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated cells: %v, want ErrMalformed", err)
	}

	// Into a nil buf the headers are validated before the allocation;
	// into a large enough one the columns decode as they validate.
	for _, buf := range [][]int64{nil, make([]int64, 64)} {
		for _, tc := range handBatches() {
			_, _, _, err := DecodeBatchPayload(tc.p, buf)
			if tc.valid && err != nil {
				t.Errorf("%s (buf cap %d): %v", tc.name, cap(buf), err)
			}
			if !tc.valid && !errors.Is(err, ErrMalformed) {
				t.Errorf("%s (buf cap %d): %v, want ErrMalformed", tc.name, cap(buf), err)
			}
		}
	}
	if values, _, _, _ := DecodeBatchPayload(handBatches()[0].p, nil); !slices.Equal(values, []int64{-5, -4, -3}) {
		t.Errorf("a hand-packed column decoded as %v", values)
	}

	// The largest frame the limits admit, whose last column is one byte
	// short: it fails after the headers are read and before the 32 MiB
	// of cells are allocated.
	const rows, width = maxBatchRows, maxBatchCells / maxBatchRows
	cols := make([][]byte, width)
	for c := range cols {
		cols[c] = batchCol(0, 8, make([]byte, rows))
	}
	cols[width-1] = cols[width-1][:len(cols[width-1])-1]
	forged := batchOf(rows, cols...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := DecodeBatchPayload(forged, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("short last column of a maximal frame: %v, want ErrMalformed", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("refusing a forged maximal frame allocated %d bytes", n)
	}
}

// codecBatch is one server-sized batch of the benchmark's scan shape:
// 1 024 rows x 10 columns, a clustered id (the dense ids a 20 % range
// filter keeps, in table order) and nine columns uniform over
// 0..100 000.
func codecBatch() (flat []int64, rows, width int) {
	const domain = 100_000
	rows, width = 1024, 10
	rng := rand.New(rand.NewSource(42))
	flat = make([]int64, 0, rows*width)
	for id := int64(0); len(flat) < rows*width; id++ {
		if rng.Intn(5) != 0 {
			continue
		}
		flat = append(flat, id)
		for c := 1; c < width; c++ {
			flat = append(flat, rng.Int63n(domain))
		}
	}
	return flat, rows, width
}

// BenchmarkBatchCodec times AppendBatch and DecodeBatchPayload on
// codecBatch, per tuple, and reports the payload's bytes per tuple:
// the codec's share of a remote scan, measured without a server.
func BenchmarkBatchCodec(b *testing.B) {
	flat, rows, width := codecBatch()
	var e Encoder
	e.AppendBatch(flat, rows, width)
	payload := slices.Clone(e.B)
	bytesPerTuple := float64(len(payload)) / float64(rows)

	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.B = e.B[:0]
			e.AppendBatch(flat, rows, width)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/tuple")
		b.ReportMetric(bytesPerTuple, "B/tuple")
	})
	b.Run("decode", func(b *testing.B) {
		buf := make([]int64, rows*width)
		for i := 0; i < b.N; i++ {
			got, _, _, err := DecodeBatchPayload(payload, buf)
			if err != nil || got[len(got)-1] != flat[len(flat)-1] {
				b.Fatalf("decode: %v", err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/tuple")
		b.ReportMetric(bytesPerTuple, "B/tuple")
	})
}
