package bitmap

import (
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130) // spans three words
	for _, i := range []int64{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("fresh bit %d set", i)
		}
		if !b.Set(i) {
			t.Errorf("Set(%d) reported already set", i)
		}
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		if b.Set(i) {
			t.Errorf("second Set(%d) reported newly set", i)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 7 {
		t.Errorf("Clear failed: get=%v count=%d", b.Get(64), b.Count())
	}
	b.Clear(64) // double clear is a no-op
	if b.Count() != 7 {
		t.Errorf("double Clear changed count: %d", b.Count())
	}
	b.Reset()
	if b.Count() != 0 || b.Get(0) {
		t.Error("Reset did not clear")
	}
}

func TestBounds(t *testing.T) {
	b := New(10)
	for _, i := range []int64{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access to bit %d did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New(-1) did not panic")
			}
		}()
		New(-1)
	}()
}

func TestMemoryBytes(t *testing.T) {
	// The paper's example: 1M pages -> 140 KB ballpark; a dense
	// bitmap needs 1M/8 = 125 KB.
	b := New(1_000_000)
	if got := b.MemoryBytes(); got != 125_000 {
		t.Errorf("MemoryBytes = %d, want 125000", got)
	}
	if New(0).MemoryBytes() != 0 {
		t.Error("empty bitmap has nonzero memory")
	}
	if New(1).MemoryBytes() != 8 {
		t.Error("1-bit bitmap should round up to one word")
	}
}

// Property: a bitmap behaves exactly like a map[int64]bool.
func TestBitmapMatchesMapProperty(t *testing.T) {
	const n = 256
	f := func(ops []uint16) bool {
		b := New(n)
		ref := make(map[int64]bool)
		for _, op := range ops {
			i := int64(op) % n
			switch (op / n) % 3 {
			case 0:
				wasNew := !ref[i]
				if b.Set(i) != wasNew {
					return false
				}
				ref[i] = true
			case 1:
				b.Clear(i)
				delete(ref, i)
			case 2:
				if b.Get(i) != ref[i] {
					return false
				}
			}
		}
		if int(b.Count()) != len(ref) {
			return false
		}
		for i := int64(0); i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWord checks Word against Get at every offset of a bitmap whose
// length is not a multiple of 64: bit j of Word(from) is bit from+j,
// and bits at or beyond Len read as clear.
func TestWord(t *testing.T) {
	const n = 200
	b := New(n)
	for i := int64(0); i < n; i++ {
		if (i*i+3*i)%7 < 3 {
			b.Set(i)
		}
	}
	for from := int64(0); from < n; from++ {
		w := b.Word(from)
		for j := int64(0); j < 64; j++ {
			want := from+j < n && b.Get(from+j)
			if got := w&(1<<j) != 0; got != want {
				t.Fatalf("Word(%d) bit %d = %v, Get(%d) = %v", from, j, got, from+j, want)
			}
		}
	}
	for _, from := range []int64{-1, n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Word(%d) did not panic", from)
				}
			}()
			b.Word(from)
		}()
	}
}
