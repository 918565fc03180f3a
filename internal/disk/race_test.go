package disk

import (
	"sync"
	"testing"

	"smoothscan/internal/simcost"
)

// TestStatsConcurrentSnapshot hammers a device with concurrent readers,
// CPU chargers and Stats snapshotters. Under -race it proves the
// counters are data-race free; in any mode it checks that the final
// totals are exact (no lost updates, CPU time included, on the device
// and on the account the workers' forks share) and that every snapshot
// is internally consistent (IOTime never behind what the observed
// request count implies is impossible, i.e. non-negative and
// monotone).
func TestStatsConcurrentSnapshot(t *testing.T) {
	dev := NewDevice(HDD)
	sp := dev.CreateSpace()
	page := make([]byte, dev.PageSize())
	const numPages = 64
	for i := 0; i < numPages; i++ {
		if _, err := dev.AppendPage(sp, page); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetStats()

	const (
		workers   = 8
		perWorker = 200
	)
	q := dev.OpenChannel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch := q.Fork()
			for i := 0; i < perWorker; i++ {
				if _, err := ch.ReadRun(sp, int64((w*7+i)%numPages), 1); err != nil {
					t.Error(err)
					return
				}
				ch.ChargeCPUN(simcost.Tuple, 3)
			}
		}(w)
	}
	// Concurrent snapshotters: every observed snapshot must be
	// internally consistent.
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for r := 0; r < 4; r++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			var lastPages int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := dev.Stats()
				if st.PagesRead < lastPages {
					t.Errorf("PagesRead went backwards: %d -> %d", lastPages, st.PagesRead)
					return
				}
				lastPages = st.PagesRead
				if st.RandomAccesses+st.SeqAccesses > st.PagesRead+st.SkippedPages {
					t.Errorf("torn snapshot: rand=%d seq=%d pages=%d skipped=%d",
						st.RandomAccesses, st.SeqAccesses, st.PagesRead, st.SkippedPages)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	st := dev.Stats()
	if want := int64(workers * perWorker); st.PagesRead != want {
		t.Errorf("PagesRead = %d, want %d (lost updates)", st.PagesRead, want)
	}
	wantCPU := (workers * perWorker * 3 * simcost.Tuple).Units()
	if st.CPUTime != wantCPU {
		t.Errorf("device CPUTime = %v, want %v", st.CPUTime, wantCPU)
	}
	if got := q.Stats().CPUTime; got != wantCPU {
		t.Errorf("account CPUTime = %v, want %v", got, wantCPU)
	}
}

// TestChannelClassificationIndependence verifies that two interleaved
// sequential streams on separate channels are both classified
// sequential — the property that makes the random/sequential split
// meaningful under parallel scans — while the same interleaving on a
// single head would seek on every request.
func TestChannelClassificationIndependence(t *testing.T) {
	dev := NewDevice(HDD)
	sp := dev.CreateSpace()
	page := make([]byte, dev.PageSize())
	const numPages = 128
	for i := 0; i < numPages; i++ {
		if _, err := dev.AppendPage(sp, page); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetStats()

	a, b := dev.NewChannel(), dev.NewChannel()
	// Stream a walks pages [0,32), stream b walks [64,96), interleaved.
	for i := int64(0); i < 32; i++ {
		if _, err := a.ReadRun(sp, i, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReadRun(sp, 64+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	if st.RandomAccesses != 2 {
		t.Errorf("RandomAccesses = %d, want 2 (one cold seek per stream)", st.RandomAccesses)
	}
	if st.SeqAccesses != 62 {
		t.Errorf("SeqAccesses = %d, want 62", st.SeqAccesses)
	}
	// Per-channel contributions sum to the device totals.
	sa, sb := a.Stats(), b.Stats()
	if sa.PagesRead+sb.PagesRead != st.PagesRead {
		t.Errorf("channel contributions %d+%d != device %d", sa.PagesRead, sb.PagesRead, st.PagesRead)
	}
	if sa.RandomAccesses != 1 || sb.RandomAccesses != 1 {
		t.Errorf("per-channel rand = %d/%d, want 1/1", sa.RandomAccesses, sb.RandomAccesses)
	}

	// The same interleaving through the single default head: every
	// request is a seek.
	dev.ResetStats()
	for i := int64(0); i < 32; i++ {
		if _, err := dev.ReadPage(sp, i); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.ReadPage(sp, 64+i); err != nil {
			t.Fatal(err)
		}
	}
	if st := dev.Stats(); st.RandomAccesses != 64 {
		t.Errorf("single-head interleaving: RandomAccesses = %d, want 64", st.RandomAccesses)
	}
}
