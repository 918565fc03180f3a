package heap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/tuple"
)

// kernelPageSize is the engine's default page size.
const kernelPageSize = 8192

// pageFile returns a heap file of cols integer columns on
// kernelPageSize pages. The page readers only consult its schema, so
// it has no device.
func pageFile(cols int) *File {
	s := tuple.Ints(cols)
	return &File{schema: s, tuplesPerPage: (kernelPageSize - headerSize) / s.TupleSize()}
}

// makePage encodes count slots of f's width into a fresh page, column
// c of slot s being val(s, c).
func makePage(f *File, count int, val func(s, c int) int64) []byte {
	page := make([]byte, kernelPageSize)
	binary.LittleEndian.PutUint32(page[0:], uint32(count))
	binary.LittleEndian.PutUint32(page[4:], uint32(f.schema.TupleSize()))
	off := headerSize
	for s := 0; s < count; s++ {
		for c := 0; c < f.schema.NumCols(); c++ {
			binary.LittleEndian.PutUint64(page[off:], uint64(val(s, c)))
			off += 8
		}
	}
	return page
}

// misaligned returns a copy of page that starts one byte past an
// 8-byte boundary, so the readers cannot view it as words.
func misaligned(page []byte) []byte {
	buf := make([]byte, len(page)+1)
	copy(buf[1:], page)
	return buf[1:]
}

// scalarMatching is the slot-at-a-time reader the mask kernel
// replaced, kept as the oracle: it tests one slot's predicate and
// residual columns, then its veto bit, and decodes a selected slot
// word by word.
func scalarMatching(f *File, page []byte, lo, hi int, pred tuple.RangePred, residual []tuple.RangePred, veto *Veto, dst *tuple.Batch) (next, examined int) {
	s := lo
	for ; s < hi; s++ {
		if dst.Full() {
			break
		}
		if scalarQualifies(f, page, s, pred, residual) && !scalarVetoed(veto, s) {
			scalarRow(f, page, s, dst.AppendSlotRaw())
		}
	}
	return s, s - lo
}

// scalarQualifies reports whether slot s satisfies pred and every
// residual, reading one column word at a time.
func scalarQualifies(f *File, page []byte, s int, pred tuple.RangePred, residual []tuple.RangePred) bool {
	base := headerSize + s*f.schema.TupleSize()
	for _, p := range append([]tuple.RangePred{pred}, residual...) {
		if v := int64(binary.LittleEndian.Uint64(page[base+8*p.Col:])); v < p.Lo || v >= p.Hi {
			return false
		}
	}
	return true
}

// scalarVetoed reports whether veto names slot s.
func scalarVetoed(veto *Veto, s int) bool {
	return veto != nil && veto.Seen.Get(veto.Base+int64(s))
}

// scalarFound reports whether a slot in [lo, hi) satisfies pred and
// every residual, vetoed or not.
func scalarFound(f *File, page []byte, lo, hi int, pred tuple.RangePred, residual []tuple.RangePred) bool {
	for s := lo; s < hi; s++ {
		if scalarQualifies(f, page, s, pred, residual) {
			return true
		}
	}
	return false
}

// scalarRow decodes slot s into row word by word.
func scalarRow(f *File, page []byte, s int, row tuple.Row) {
	base := headerSize + s*f.schema.TupleSize()
	for i := range row {
		row[i] = binary.LittleEndian.Uint64(page[base+8*i:])
	}
}

// kernelCase is one page read: the page, the slot span, the
// predicates, the veto and the batch's fill limit (0 = growable).
type kernelCase struct {
	name     string
	f        *File
	page     []byte
	lo, hi   int
	pred     tuple.RangePred
	residual []tuple.RangePred
	veto     *Veto
	limit    int
}

func (k kernelCase) batch() *tuple.Batch {
	if k.limit == 0 {
		return tuple.NewGrowableBatch(k.f.schema.NumCols())
	}
	return tuple.NewBatch(k.f.schema.NumCols(), k.limit)
}

// checkKernel runs every page reader on k's page as given and on a
// misaligned copy of it (the scalar fallback), and compares rows, next,
// examined, found and selection masks with the scalar oracle.
func checkKernel(t *testing.T, k kernelCase) {
	t.Helper()
	w := k.f.schema.NumCols()
	want := k.batch()
	wantNext, wantExamined := scalarMatching(k.f, k.page, k.lo, k.hi, k.pred, k.residual, k.veto, want)
	wantFound := scalarFound(k.f, k.page, k.lo, wantNext, k.pred, k.residual)
	wantSelected := tuple.NewGrowableBatch(w)
	scalarMatching(k.f, k.page, k.lo, k.hi, k.pred, k.residual, k.veto, wantSelected)
	wantAll := k.batch()
	for s := k.lo; s < k.hi; s++ {
		row := wantAll.AppendSlotRaw()
		if row == nil {
			break
		}
		scalarRow(k.f, k.page, s, row)
	}
	for _, view := range []struct {
		name string
		page []byte
	}{{"words", k.page}, {"fallback", misaligned(k.page)}} {
		if _, ok := tuple.Words(view.page); ok != (view.name == "words") {
			t.Fatalf("%s/%s: tuple.Words ok = %v", k.name, view.name, ok)
		}
		got := k.batch()
		next, examined := k.f.DecodeBatchMatching(view.page, k.lo, k.hi, k.pred, k.residual, k.veto, got)
		if next != wantNext || examined != wantExamined {
			t.Fatalf("%s/%s: next, examined = %d, %d; oracle %d, %d", k.name, view.name, next, examined, wantNext, wantExamined)
		}
		if err := sameRows(got, want); err != nil {
			t.Fatalf("%s/%s: %v", k.name, view.name, err)
		}
		got = k.batch()
		next, found := k.f.ProbeBatch(view.page, k.lo, k.hi, k.pred, k.residual, k.veto, got)
		if next != wantNext || found != wantFound {
			t.Fatalf("%s/%s: ProbeBatch next, found = %d, %v; oracle %d, %v", k.name, view.name, next, found, wantNext, wantFound)
		}
		if err := sameRows(got, want); err != nil {
			t.Fatalf("%s/%s: ProbeBatch: %v", k.name, view.name, err)
		}
		checkResumes(t, k, view.name, view.page, wantSelected)
		checkSelect(t, k, view.name, view.page)
		all := k.batch()
		if next := k.f.DecodeBatch(view.page, k.lo, k.hi, all); next != k.lo+wantAll.Len() {
			t.Fatalf("%s/%s: DecodeBatch next = %d, oracle %d", k.name, view.name, next, k.lo+wantAll.Len())
		}
		if err := sameRows(all, wantAll); err != nil {
			t.Fatalf("%s/%s: DecodeBatch: %v", k.name, view.name, err)
		}
		for i := 0; i < wantAll.Len(); i++ {
			if row := k.f.DecodeRow(view.page, k.lo+i, nil); !row.Equal(wantAll.Row(i)) {
				t.Fatalf("%s/%s: DecodeRow(%d) = %v, oracle %v", k.name, view.name, k.lo+i, row, wantAll.Row(i))
			}
		}
	}
}

// checkResumes delivers k's span through one-row batches, resuming
// each ProbeBatch call where the last stopped, so the batch fills at
// every qualifying slot; the rows must be the oracle's and each call's
// found must cover exactly the slots it examined.
func checkResumes(t *testing.T, k kernelCase, view string, page []byte, want *tuple.Batch) {
	t.Helper()
	got, one := tuple.NewGrowableBatch(k.f.schema.NumCols()), tuple.NewBatch(k.f.schema.NumCols(), 1)
	for lo := k.lo; lo < k.hi; {
		one.Reset()
		next, found := k.f.ProbeBatch(page, lo, k.hi, k.pred, k.residual, k.veto, one)
		if next <= lo || next > k.hi {
			t.Fatalf("%s/%s: ProbeBatch from %d: next %d", k.name, view, lo, next)
		}
		if wantFound := scalarFound(k.f, page, lo, next, k.pred, k.residual); found != wantFound {
			t.Fatalf("%s/%s: ProbeBatch [%d,%d) found = %v, oracle %v", k.name, view, lo, next, found, wantFound)
		}
		if one.Len() == 1 && next-1 != lastSelected(k, page, lo, next) {
			t.Fatalf("%s/%s: ProbeBatch from %d stopped at %d, after a slot the oracle did not select", k.name, view, lo, next)
		}
		got.AppendRows(one, 0, one.Len())
		lo = next
	}
	if err := sameRows(got, want); err != nil {
		t.Fatalf("%s/%s: one-row resumes: %v", k.name, view, err)
	}
}

// lastSelected returns the last slot of [lo, hi) the oracle selects
// (qualifying and not vetoed), or -1.
func lastSelected(k kernelCase, page []byte, lo, hi int) int {
	for s := hi - 1; s >= lo; s-- {
		if scalarQualifies(k.f, page, s, k.pred, k.residual) && !scalarVetoed(k.veto, s) {
			return s
		}
	}
	return -1
}

// checkSelect compares SelectChunk's mask and found with the oracle for
// every 64-slot chunk of k's span, starting at k.lo (so mid-word when
// k.lo is not a multiple of 64).
func checkSelect(t *testing.T, k kernelCase, view string, page []byte) {
	t.Helper()
	for lo := k.lo; lo < k.hi; lo += 64 {
		var want uint64
		end := min(lo+64, k.hi)
		for s := lo; s < end; s++ {
			if scalarQualifies(k.f, page, s, k.pred, k.residual) && !scalarVetoed(k.veto, s) {
				want |= 1 << (s - lo)
			}
		}
		wantFound := scalarFound(k.f, page, lo, end, k.pred, k.residual)
		sel, found := k.f.SelectChunk(page, lo, k.hi, k.pred, k.residual, k.veto)
		if sel != want || found != wantFound {
			t.Fatalf("%s/%s: SelectChunk(%d) = %#x, %v; oracle %#x, %v", k.name, view, lo, sel, found, want, wantFound)
		}
	}
}

// sameRows reports the first difference between two batches.
func sameRows(got, want *tuple.Batch) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, oracle %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !got.Row(i).Equal(want.Row(i)) {
			return fmt.Errorf("row %d = %v, oracle %v", i, got.Row(i), want.Row(i))
		}
	}
	return nil
}

// TestPageKernelStopContract compares the mask kernel with the scalar
// oracle on the cases the stop contract and the simulated CPU charge
// depend on: fills that end mid-page and mid-run, resumption from any
// slot, empty and full-domain predicates, residuals that reject every
// candidate, vetoes on none, all and across a word boundary, both
// page shapes, and the misaligned fallback (checkKernel runs every
// case on it too).
func TestPageKernelStopContract(t *testing.T) {
	ten, two := pageFile(10), pageFile(2)
	if ten.tuplesPerPage != 102 || two.tuplesPerPage <= 64*7 {
		t.Fatalf("slots per page: 10 columns %d, 2 columns %d", ten.tuplesPerPage, two.tuplesPerPage)
	}
	// c0 = slot; c1 = slot%10, so [0,2) on c1 selects runs of two
	// slots; the other columns spread slot*7 mod 100.
	val := func(s, c int) int64 {
		switch c {
		case 0:
			return int64(s)
		case 1:
			return int64(s % 10)
		}
		return int64((s*7 + c) % 100)
	}
	pages := []struct {
		f    *File
		page []byte
	}{
		{ten, makePage(ten, ten.tuplesPerPage, val)},
		{two, makePage(two, two.tuplesPerPage, val)},
	}
	runs := tuple.RangePred{Col: 1, Lo: 0, Hi: 2}
	vetoes := func(f *File) map[string]*Veto {
		const pageNo = 3 // base = 3*slots, not a multiple of 64
		n := int64(pageNo+1) * int64(f.tuplesPerPage)
		none, all, straddle := bitmap.New(n), bitmap.New(n), bitmap.New(n)
		base := int64(pageNo) * int64(f.tuplesPerPage)
		for i := base; i < n; i++ {
			all.Set(i)
		}
		for s := int64(60); s < 70; s++ {
			straddle.Set(base + s)
		}
		return map[string]*Veto{
			"none": {Seen: none, Base: base}, "all": {Seen: all, Base: base},
			"straddle": {Seen: straddle, Base: base},
		}
	}
	for _, p := range pages {
		f, page := p.f, p.page
		count := f.tuplesPerPage
		name := func(s string, args ...any) string {
			return fmt.Sprintf("%dcols/", f.schema.NumCols()) + fmt.Sprintf(s, args...)
		}
		for limit := 1; limit <= 24; limit++ {
			checkKernel(t, kernelCase{name: name("runs/limit%d", limit), f: f, page: page, hi: count, pred: runs, limit: limit})
			checkKernel(t, kernelCase{name: name("all/limit%d", limit), f: f, page: page, hi: count, pred: tuple.All(0), limit: limit})
		}
		for _, lo := range []int{1, 37, 63, 64, 65, 100, count - 1, count} {
			for _, limit := range []int{0, 1, 3, 64} {
				checkKernel(t, kernelCase{name: name("resume%d/limit%d", lo, limit), f: f, page: page, lo: lo, hi: count, pred: runs, limit: limit})
			}
		}
		checkKernel(t, kernelCase{name: name("hi<=lo"), f: f, page: page, hi: count, pred: tuple.RangePred{Col: 0, Lo: 5, Hi: 5}})
		checkKernel(t, kernelCase{name: name("hi<lo"), f: f, page: page, hi: count, pred: tuple.RangePred{Col: 0, Lo: 9, Hi: -9}})
		checkKernel(t, kernelCase{name: name("tuple.All"), f: f, page: page, hi: count, pred: tuple.All(f.schema.NumCols() - 1)})
		checkKernel(t, kernelCase{name: name("residual-rejects-all"), f: f, page: page, hi: count, pred: runs,
			residual: []tuple.RangePred{{Col: 0, Lo: -10, Hi: 0}}})
		checkKernel(t, kernelCase{name: name("residual-empty"), f: f, page: page, hi: count, pred: tuple.All(0),
			residual: []tuple.RangePred{{Col: 1, Lo: 3, Hi: 1}}})
		checkKernel(t, kernelCase{name: name("residual-some"), f: f, page: page, lo: 5, hi: count, pred: runs,
			residual: []tuple.RangePred{{Col: 0, Lo: 20, Hi: 300}}, limit: 7})
		for vn, v := range vetoes(f) {
			for _, limit := range []int{0, 1, 5} {
				checkKernel(t, kernelCase{name: name("veto-%s/limit%d", vn, limit), f: f, page: page, lo: 2, hi: count, pred: tuple.All(0), veto: v, limit: limit})
				checkKernel(t, kernelCase{name: name("veto-%s-runs/limit%d", vn, limit), f: f, page: page, lo: 59, hi: count, pred: runs, veto: v, limit: limit})
			}
		}
	}
}

// TestDecodeBatchMatchingFullOnEntry pins the (lo, 0) answer for a
// batch that has no room before the first slot.
func TestDecodeBatchMatchingFullOnEntry(t *testing.T) {
	f := pageFile(10)
	page := makePage(f, f.tuplesPerPage, func(s, c int) int64 { return int64(s) })
	b := tuple.NewBatch(10, 1)
	b.AppendSlot()
	if next, examined := f.DecodeBatchMatching(page, 17, f.tuplesPerPage, tuple.All(0), nil, nil, b); next != 17 || examined != 0 {
		t.Fatalf("full batch: next, examined = %d, %d; want 17, 0", next, examined)
	}
	if next := f.DecodeBatch(page, 17, f.tuplesPerPage, b); next != 17 {
		t.Fatalf("full batch: DecodeBatch next = %d, want 17", next)
	}
}

// FuzzPageKernel compares the mask kernel (and its misaligned-page
// fallback) with the scalar oracle on random pages, widths, predicate
// bounds, residuals, vetoes, start slots and fill limits. data is the
// page's value stream: each byte is one small signed value, except
// 0x80 and 0x7f, which stand for MinInt64 and MaxInt64.
func FuzzPageKernel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 0x7f, 0xff}, uint8(10), uint8(0), int64(0), int64(2), uint64(1), uint16(0), uint16(0))
	f.Add([]byte{5, 0xfb, 9, 0x80}, uint8(2), uint8(1), int64(math.MinInt64), int64(math.MaxInt64), uint64(7), uint16(65), uint16(3))
	f.Add([]byte{1}, uint8(1), uint8(0), int64(1), int64(1), uint64(42), uint16(100), uint16(1))
	f.Add([]byte{0x10, 0x20, 0xf0}, uint8(3), uint8(2), int64(-20), int64(40), uint64(99), uint16(64), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, cols, predCol uint8, lo, hi int64, seed uint64, from, limit uint16) {
		if len(data) == 0 {
			return
		}
		w := 1 + int(cols)%16
		pf := pageFile(w)
		rng := rand.New(rand.NewSource(int64(seed)))
		count := rng.Intn(pf.tuplesPerPage + 1)
		i := 0
		page := makePage(pf, count, func(s, c int) int64 {
			b := data[i%len(data)]
			i++
			switch b {
			case 0x80:
				return math.MinInt64
			case 0x7f:
				return math.MaxInt64
			}
			return int64(int8(b))
		})
		k := kernelCase{
			name:  "fuzz",
			f:     pf,
			page:  page,
			lo:    int(from) % (count + 1),
			hi:    count,
			pred:  tuple.RangePred{Col: int(predCol) % w, Lo: lo, Hi: hi},
			limit: int(limit) % 200,
		}
		for r := rng.Intn(3); r > 0; r-- {
			a, b := int64(rng.Intn(256)-128), int64(rng.Intn(256)-128)
			k.residual = append(k.residual, tuple.RangePred{Col: rng.Intn(w), Lo: min(a, b), Hi: max(a, b)})
		}
		if seed%3 != 0 {
			pageNo := int64(rng.Intn(4))
			seen := bitmap.New((pageNo + 1) * int64(pf.tuplesPerPage))
			density := rng.Intn(4)
			for s := int64(0); s < int64(pf.tuplesPerPage); s++ {
				if rng.Intn(4) < density {
					seen.Set(pageNo*int64(pf.tuplesPerPage) + s)
				}
			}
			k.veto = &Veto{Seen: seen, Base: pageNo * int64(pf.tuplesPerPage)}
		}
		checkKernel(t, k)
	})
}

// BenchmarkPageKernel times DecodeBatchMatching over a warm set of
// 10-column pages (102 slots each) at 1 %, 20 % and 100 % selectivity
// on a uniformly random column, and with a fill limit of 10 rows that
// makes every call stop mid-page. It reports ns per slot examined.
func BenchmarkPageKernel(b *testing.B) {
	f := pageFile(10)
	rng := rand.New(rand.NewSource(1))
	pages := make([][]byte, 64)
	for i := range pages {
		pages[i] = makePage(f, f.tuplesPerPage, func(s, c int) int64 { return rng.Int63n(100) })
	}
	for _, bc := range []struct {
		name  string
		hi    int64
		limit int
	}{{"sel1", 1, 0}, {"sel20", 20, 0}, {"sel100", 100, 0}, {"sel20-fill10", 20, 10}} {
		b.Run(bc.name, func(b *testing.B) {
			pred := tuple.RangePred{Col: 3, Lo: 0, Hi: bc.hi}
			batch := tuple.NewBatch(10, 1024)
			if bc.limit > 0 {
				batch.SetFillLimit(bc.limit)
			}
			slots := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, page := range pages {
					for lo := 0; lo < f.tuplesPerPage; {
						batch.Reset()
						next, examined := f.DecodeBatchMatching(page, lo, f.tuplesPerPage, pred, nil, nil, batch)
						lo, slots = next, slots+examined
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
		})
	}
}
