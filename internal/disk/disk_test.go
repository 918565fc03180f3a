package disk

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"smoothscan/internal/simcost"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	return NewDevice(Profile{Name: "test", RandCost: 10, SeqCost: 1, PageSize: 64})
}

func fill(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestAppendAndReadRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 10; i++ {
		no, err := d.AppendPage(sp, fill(byte(i), 64))
		if err != nil {
			t.Fatalf("AppendPage: %v", err)
		}
		if no != int64(i) {
			t.Fatalf("AppendPage returned page %d, want %d", no, i)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := d.ReadPage(sp, int64(i))
		if err != nil {
			t.Fatalf("ReadPage(%d): %v", i, err)
		}
		if !bytes.Equal(got, fill(byte(i), 64)) {
			t.Errorf("page %d content mismatch", i)
		}
	}
}

func TestWritePage(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	if _, err := d.AppendPage(sp, fill(1, 64)); err != nil {
		t.Fatal(err)
	}
	before, err := d.ReadPage(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(sp, 0, fill(9, 64)); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got, err := d.ReadPage(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Errorf("read back %d, want 9", got[0])
	}
	// A slice read before the write is not written into: a reader that
	// holds it keeps the old bytes.
	if before[0] != 1 {
		t.Errorf("the page read before the write now holds %d, want 1", before[0])
	}
}

func TestWrongPageSizeRejected(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	if _, err := d.AppendPage(sp, make([]byte, 63)); err == nil {
		t.Error("AppendPage accepted short page")
	}
	if _, err := d.AppendPage(sp, fill(0, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(sp, 0, make([]byte, 65)); err == nil {
		t.Error("WritePage accepted long page")
	}
}

func TestOutOfRangeAndUnknownSpace(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	if _, err := d.ReadPage(sp, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("ReadPage empty space: err=%v, want ErrOutOfRange", err)
	}
	if _, err := d.ReadPage(SpaceID(99), 0); !errors.Is(err, ErrNoSpace) {
		t.Errorf("ReadPage unknown space: err=%v, want ErrNoSpace", err)
	}
	if _, err := d.AppendPage(SpaceID(99), fill(0, 64)); !errors.Is(err, ErrNoSpace) {
		t.Errorf("AppendPage unknown space: err=%v, want ErrNoSpace", err)
	}
	if err := d.WritePage(sp, 5, fill(0, 64)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("WritePage out of range: err=%v, want ErrOutOfRange", err)
	}
}

func TestSequentialClassification(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 8; i++ {
		if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()

	// First access is always random.
	if _, err := d.ReadPage(sp, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RandomAccesses != 1 || s.SeqAccesses != 0 {
		t.Fatalf("after first read: %+v", s)
	}
	// Adjacent next page: sequential.
	if _, err := d.ReadPage(sp, 1); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.RandomAccesses != 1 || s.SeqAccesses != 1 {
		t.Fatalf("after adjacent read: %+v", s)
	}
	// Short forward skip (gap 3, read-through cost 4 < seek cost 10):
	// classified sequential with 3 skipped pages.
	if _, err := d.ReadPage(sp, 5); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.RandomAccesses != 1 || s.SeqAccesses != 2 || s.SkippedPages != 3 {
		t.Fatalf("after short skip: %+v", s)
	}
	// Re-reading the same page is a seek backwards: random.
	if _, err := d.ReadPage(sp, 5); err != nil {
		t.Fatal(err)
	}
	if s = d.Stats(); s.RandomAccesses != 2 {
		t.Fatalf("after repeat read: %+v", s)
	}
	if want := 2*10.0 + 1 + 4; s.IOTime != want {
		t.Errorf("IOTime = %v, want %v", s.IOTime, want)
	}
}

func TestLongForwardJumpIsRandom(t *testing.T) {
	d := NewDevice(Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
	sp := d.CreateSpace()
	for i := 0; i < 32; i++ {
		if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	if _, err := d.ReadPage(sp, 0); err != nil {
		t.Fatal(err)
	}
	// Gap 19: read-through would cost 20 > 10, so the device seeks.
	if _, err := d.ReadPage(sp, 20); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RandomAccesses != 2 || s.SkippedPages != 0 {
		t.Errorf("long jump misclassified: %+v", s)
	}
}

func TestSequentialAcrossSpacesIsRandom(t *testing.T) {
	d := newTestDevice(t)
	a, b := d.CreateSpace(), d.CreateSpace()
	if _, err := d.AppendPage(a, fill(0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendPage(a, fill(1, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendPage(b, fill(2, 64)); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if _, err := d.ReadPage(a, 0); err != nil {
		t.Fatal(err)
	}
	// Page 0 of a different space must not be treated as adjacent.
	if _, err := d.ReadPage(b, 0); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.RandomAccesses != 2 {
		t.Errorf("cross-space access classified sequential: %+v", s)
	}
}

func TestReadRunAccounting(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 16; i++ {
		if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()

	pages, err := d.ReadRun(sp, 4, 4)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if len(pages) != 4 || pages[0][0] != 4 || pages[3][0] != 7 {
		t.Fatalf("ReadRun returned wrong pages")
	}
	s := d.Stats()
	if s.Requests != 1 {
		t.Errorf("Requests = %d, want 1 (a run is one request)", s.Requests)
	}
	if s.RandomAccesses != 1 || s.SeqAccesses != 3 {
		t.Errorf("run accounting: %+v", s)
	}
	if s.PagesRead != 4 || s.BytesRead != 4*64 {
		t.Errorf("transfer accounting: %+v", s)
	}
	if want := 10 + 3.0; s.IOTime != want {
		t.Errorf("IOTime = %v, want %v", s.IOTime, want)
	}

	// A run starting right after the previous run is fully sequential.
	if _, err := d.ReadRun(sp, 8, 2); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.RandomAccesses != 1 || s.SeqAccesses != 5 {
		t.Errorf("adjacent run accounting: %+v", s)
	}
}

func TestReadRunBounds(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	if _, err := d.AppendPage(sp, fill(0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadRun(sp, 0, 2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("over-long run: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.ReadRun(sp, -1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative start: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.ReadRun(sp, 0, 0); err == nil {
		t.Error("zero-length run accepted")
	}
}

func TestChargeCPUAndTime(t *testing.T) {
	d := newTestDevice(t)
	d.DefaultChannel().ChargeCPU(2.5)
	d.DefaultChannel().ChargeCPU(1.5)
	s := d.Stats()
	if s.CPUTime != 4 {
		t.Errorf("CPUTime = %v, want 4", s.CPUTime)
	}
	if s.Time() != 4 {
		t.Errorf("Time() = %v, want 4", s.Time())
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Requests: 10, RandomAccesses: 4, SeqAccesses: 6, PagesRead: 10, BytesRead: 640, IOTime: 46, CPUTime: 2}
	b := Stats{Requests: 4, RandomAccesses: 1, SeqAccesses: 3, PagesRead: 4, BytesRead: 256, IOTime: 13, CPUTime: 1}
	got := a.Sub(b)
	want := Stats{Requests: 6, RandomAccesses: 3, SeqAccesses: 3, PagesRead: 6, BytesRead: 384, IOTime: 33, CPUTime: 1}
	if got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}

func TestResetStatsForgetsPosition(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 2; i++ {
		if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ReadPage(sp, 0); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	// Without position reset, page 1 would be sequential.
	if _, err := d.ReadPage(sp, 1); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.RandomAccesses != 1 || s.SeqAccesses != 0 {
		t.Errorf("cold read after reset misclassified: %+v", s)
	}
}

func TestFailureInjection(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 4; i++ {
		if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	d.FailAfter(2)
	if _, err := d.ReadRun(sp, 0, 2); err != nil {
		t.Fatalf("read within budget failed: %v", err)
	}
	if _, err := d.ReadPage(sp, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Injection disarms after firing.
	if _, err := d.ReadPage(sp, 2); err != nil {
		t.Fatalf("read after injection disarmed failed: %v", err)
	}
	d.FailAfter(0)
	if _, err := d.ReadPage(sp, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("FailAfter(0): err = %v, want ErrInjected", err)
	}
}

// Property: for any access sequence, RandomAccesses+SeqAccesses equals
// PagesRead, IOTime equals the weighted sum, and BytesRead equals
// PagesRead*PageSize.
func TestAccountingInvariants(t *testing.T) {
	const numPages = 32
	f := func(seed []uint8) bool {
		d := newTestDevice(t)
		sp := d.CreateSpace()
		for i := 0; i < numPages; i++ {
			if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
				return false
			}
		}
		d.ResetStats()
		for _, b := range seed {
			start := int64(b) % numPages
			n := int64(b)%4 + 1
			if start+n > numPages {
				n = numPages - start
			}
			if _, err := d.ReadRun(sp, start, n); err != nil {
				return false
			}
		}
		s := d.Stats()
		if s.RandomAccesses+s.SeqAccesses != s.PagesRead {
			return false
		}
		if s.BytesRead != s.PagesRead*64 {
			return false
		}
		want := float64(s.RandomAccesses)*10 + float64(s.SeqAccesses+s.SkippedPages)*1
		return s.IOTime == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestChargeCPUNMatchesSuccessiveCharges pins the identity batched
// operators rely on: ChargeCPUN(t, n) leaves CPUTime bit-equal to n
// successive ChargeCPU(t) calls from the same starting value — the
// same additions in the same order — on an immediate channel (the
// device total and the account alike) and on a deferred channel
// followed by FlushCPU.
func TestChargeCPUNMatchesSuccessiveCharges(t *testing.T) {
	type triple struct {
		start, t float64
		n        int64
	}
	var cases []triple
	for _, n := range []int64{0, 1, 7, 102, 200_000} {
		cases = append(cases,
			triple{0, simcost.Tuple, n},
			triple{2476.405, simcost.Tuple, n},
			triple{0.2804, simcost.Hash, n})
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		cases = append(cases, triple{
			start: rng.Float64() * math.Pow(10, float64(rng.Intn(9)-2)),
			t:     rng.Float64() * math.Pow(10, float64(-rng.Intn(6))),
			n:     rng.Int63n(2000),
		})
	}
	for _, c := range cases {
		batched, oneByOne := newTestDevice(t), newTestDevice(t)
		batched.DefaultChannel().ChargeCPU(c.start)
		batched.DefaultChannel().ChargeCPUN(c.t, c.n)
		oneByOne.DefaultChannel().ChargeCPU(c.start)
		for i := int64(0); i < c.n; i++ {
			oneByOne.DefaultChannel().ChargeCPU(c.t)
		}
		if got, want := batched.Stats().CPUTime, oneByOne.Stats().CPUTime; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("immediate channel: start %v + %d x %v: ChargeCPUN gives %v, successive ChargeCPU %v", c.start, c.n, c.t, got, want)
		}
		if got, want := batched.DefaultChannel().Stats().CPUTime, oneByOne.Stats().CPUTime; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("account: start %v + %d x %v: ChargeCPUN gives %v, successive ChargeCPU %v", c.start, c.n, c.t, got, want)
		}

		batched, oneByOne = newTestDevice(t), newTestDevice(t)
		bc, oc := batched.NewChannel(), oneByOne.NewChannel()
		bc.ChargeCPU(c.start)
		bc.ChargeCPUN(c.t, c.n)
		bc.FlushCPU()
		oc.ChargeCPU(c.start)
		for i := int64(0); i < c.n; i++ {
			oc.ChargeCPU(c.t)
		}
		oc.FlushCPU()
		if got, want := batched.Stats().CPUTime, oneByOne.Stats().CPUTime; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("deferred channel: start %v + %d x %v: ChargeCPUN gives %v, successive ChargeCPU %v", c.start, c.n, c.t, got, want)
		}
	}
}

// TestStatsFieldListsComplete: Add and Sub each list the Stats fields
// by hand. Filling every field through reflect with a distinct
// non-zero value makes a counter missing from either list show up.
func TestStatsFieldListsComplete(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("Stats.%s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	sum, diff := reflect.ValueOf(Add(s, s)), reflect.ValueOf(s.Sub(s))
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		var doubled bool
		if v.Field(i).Kind() == reflect.Float64 {
			doubled = sum.Field(i).Float() == 2*v.Field(i).Float()
		} else {
			doubled = sum.Field(i).Int() == 2*v.Field(i).Int()
		}
		if !doubled {
			t.Errorf("Add(s, s).%s = %v, want twice %v", name, sum.Field(i), v.Field(i))
		}
		if !diff.Field(i).IsZero() {
			t.Errorf("s.Sub(s).%s = %v, want 0", name, diff.Field(i))
		}
	}
}

// TestForkSharesAccount: a channel's account is everything charged
// through it and its forks — each fork with a head of its own — and
// nothing charged through any other channel.
func TestForkSharesAccount(t *testing.T) {
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 8; i++ {
		if _, err := d.AppendPage(sp, fill(byte(i), 64)); err != nil {
			t.Fatal(err)
		}
	}
	q, other := d.OpenChannel(), d.OpenChannel()
	w := q.Fork()
	for _, ch := range []*Channel{&q, w, &other} {
		if _, err := ch.ReadRun(sp, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	w.ChargeCPU(0.5)
	q.ChargeCPU(0.25)
	if st := q.Stats(); st.RandomAccesses != 2 || st.PagesRead != 6 || st.CPUTime != 0.25 {
		t.Errorf("account before the fork's flush = %+v, want 2 seeks, 6 pages, 0.25 CPU", st)
	}
	w.FlushCPU()
	if st := q.Stats(); st.CPUTime != 0.75 {
		t.Errorf("account CPU after the fork's flush = %v, want 0.75", st.CPUTime)
	}
	if st := other.Stats(); st.PagesRead != 3 || st.CPUTime != 0 {
		t.Errorf("other account = %+v, want its own 3 pages only", st)
	}
	if st := d.Stats(); st.PagesRead != 9 || st.CPUTime != 0.75 {
		t.Errorf("device = %+v, want every channel's 9 pages and 0.75 CPU", st)
	}
}
