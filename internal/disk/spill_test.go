package disk

import "testing"

func TestChargeSpillAccounting(t *testing.T) {
	d := NewDevice(Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
	d.DefaultChannel().ChargeSpill(5)
	s := d.Stats()
	if s.Requests != 2 {
		t.Errorf("Requests = %d, want 2 (write pass + read pass)", s.Requests)
	}
	if s.PagesWritten != 5 || s.PagesRead != 5 {
		t.Errorf("transfer: wrote %d read %d, want 5/5", s.PagesWritten, s.PagesRead)
	}
	if s.SeqAccesses != 10 {
		t.Errorf("SeqAccesses = %d, want 10", s.SeqAccesses)
	}
	if s.IOTime != 10 {
		t.Errorf("IOTime = %v, want 10 (2 passes x 5 pages x seq)", s.IOTime)
	}
	// Zero or negative spills are no-ops.
	d.DefaultChannel().ChargeSpill(0)
	d.DefaultChannel().ChargeSpill(-3)
	if got := d.Stats(); got != s {
		t.Errorf("no-op spill changed stats: %+v", got)
	}
}

func TestChargeSpillInvalidatesHeadPosition(t *testing.T) {
	d := NewDevice(Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
	sp := d.CreateSpace()
	for i := 0; i < 4; i++ {
		if _, err := d.AppendPage(sp, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	if _, err := d.ReadPage(sp, 0); err != nil {
		t.Fatal(err)
	}
	d.DefaultChannel().ChargeSpill(2)
	// After a spill the head is at the scratch area; the "adjacent"
	// page 1 must be charged as a seek.
	before := d.Stats().RandomAccesses
	if _, err := d.ReadPage(sp, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().RandomAccesses; got != before+1 {
		t.Errorf("read after spill classified sequential (rand %d -> %d)", before, got)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Requests: 1, RandomAccesses: 2, SeqAccesses: 3, PagesRead: 5, IOTime: 23, CPUTime: 1.5}
	out := s.String()
	for _, want := range []string{"req=1", "rand=2", "seq=3", "pages=5", "io=23.0", "cpu=1.5"} {
		if !contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSpacePages(t *testing.T) {
	d := NewDevice(Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 64})
	sp := d.CreateSpace()
	if n, err := d.SpacePages(sp); err != nil || n != 0 {
		t.Errorf("empty space: %d, %v", n, err)
	}
	if _, err := d.AppendPage(sp, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if n, err := d.SpacePages(sp); err != nil || n != 1 {
		t.Errorf("after append: %d, %v", n, err)
	}
	if _, err := d.SpacePages(SpaceID(42)); err == nil {
		t.Error("unknown space accepted")
	}
}

func TestDefaultProfiles(t *testing.T) {
	if HDD.RandCost/HDD.SeqCost != 10 {
		t.Errorf("HDD ratio = %v, want 10 (paper Section V-A)", HDD.RandCost/HDD.SeqCost)
	}
	if SSD.RandCost/SSD.SeqCost != 2 {
		t.Errorf("SSD ratio = %v, want 2 (paper Section VI-E)", SSD.RandCost/SSD.SeqCost)
	}
	if HDD.PageSize != 8192 || SSD.PageSize != 8192 {
		t.Error("profiles must use the paper's 8KB pages")
	}
}

func TestNewDevicePanicsOnBadProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDevice accepted zero page size")
		}
	}()
	NewDevice(Profile{})
}
