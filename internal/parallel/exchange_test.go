package parallel

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
)

// batchLedger follows one Open's exchange batches through the test
// hooks: a batch is live from the moment a worker takes it from the
// pool until Close releases it.
type batchLedger struct {
	t       *testing.T
	mu      sync.Mutex
	live    map[*tuple.Batch]bool
	budget  int // the most batches the Open may hold at once
	taken   int
	dropped int // releases the pool refused
}

// watch installs the hooks for the rest of the test.
func watch(t *testing.T) *batchLedger {
	l := &batchLedger{t: t, live: map[*tuple.Batch]bool{}}
	testHookTake = func(b *tuple.Batch) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.live[b] {
			l.t.Errorf("batch %p taken from the pool while the exchange still holds it", b)
		}
		l.live[b] = true
		l.taken++
		if len(l.live) > l.budget {
			l.t.Errorf("%d batches live at once, budget %d", len(l.live), l.budget)
		}
	}
	testHookRelease = func(b *tuple.Batch, pooled bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if !l.live[b] {
			l.t.Errorf("batch %p released but not held by the exchange", b)
		}
		delete(l.live, b)
		if !pooled {
			l.dropped++
		}
	}
	t.Cleanup(func() { testHookTake, testHookRelease = nil, nil })
	return l
}

// reset starts the ledger for the next Open, which may hold at most
// budget batches at once.
func (l *batchLedger) reset(budget int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.budget, l.taken, l.dropped = budget, 0, 0
}

// settled checks, after a Close, that every batch the Open took went
// back to the pool with nothing of the scan still pointing at it.
func (l *batchLedger) settled(s *Scan) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.live) != 0 {
		l.t.Errorf("%d of %d batches not released by Close", len(l.live), l.taken)
	}
	if s.cur != nil || s.free != nil || s.results != nil || s.streams != nil {
		l.t.Error("Close left the scan pointing at its exchange")
	}
}

var errWorker = errors.New("worker failed")

// failingValues serves its rows, then fails where it would end.
type failingValues struct{ *exec.Values }

func (f failingValues) NextBatch(b *tuple.Batch) (int, error) {
	n, err := f.Values.NextBatch(b)
	if n == 0 && err == nil {
		return 0, errWorker
	}
	return n, err
}

// TestExchangeBatchLifecycle reopens unordered and ordered scans of 1,
// 2 and 8 workers 100 times per ending — a full drain, a Close after
// the first batch, a worker error, workers with no rows — and checks
// each Open against the hook ledger: never more batches live than the
// exchange's cap (only one per worker when no worker has a row to
// pass), and none left behind by Close. Each worker has four pooled
// batches' worth of rows, more than its share of the cap.
func TestExchangeBatchLifecycle(t *testing.T) {
	schema := testSchema()
	perWorker := 3*exec.DefaultBatchSize + 100
	endings := []string{"drain", "early-close", "worker-error", "empty"}
	for _, ordered := range []bool{false, true} {
		for _, p := range []int{1, 2, 8} {
			for _, ending := range endings {
				t.Run(fmt.Sprintf("ordered=%v/P=%d/%s", ordered, p, ending), func(t *testing.T) {
					workers := make([]exec.Operator, p)
					for w := range workers {
						var rows []tuple.Row
						if ending != "empty" {
							rows = make([]tuple.Row, perWorker)
							for i := range rows {
								rows[i] = tuple.IntsRow(int64(i), int64(w))
							}
						}
						var op exec.Operator = exec.NewValues(schema, rows)
						if ending == "worker-error" && w == p-1 {
							op = failingValues{exec.NewValues(schema, rows)}
						}
						workers[w] = op
					}
					s, err := NewScan(workers, Options{Schema: schema, Ordered: ordered, KeyCol: 0})
					if err != nil {
						t.Fatal(err)
					}
					budget := 2*p + 1
					if ordered {
						budget = 3 * p
					}
					if ending == "empty" {
						budget = p
					}
					l := watch(t)
					out := tuple.NewBatchFor(schema, exec.DefaultBatchSize)
					for i := 0; i < 100; i++ {
						l.reset(budget)
						if err := s.Open(); err != nil {
							t.Fatal(err)
						}
						rows, runErr := 0, error(nil)
						for {
							n, err := s.NextBatch(out)
							if err != nil {
								runErr = err
								break
							}
							rows += n
							if n == 0 || ending == "early-close" {
								break
							}
						}
						closeErr := s.Close()
						switch ending {
						case "drain", "empty":
							if runErr != nil || closeErr != nil {
								t.Fatalf("open %d: NextBatch %v, Close %v", i, runErr, closeErr)
							}
							if want := len(workers) * perWorker; ending == "drain" && rows != want {
								t.Fatalf("open %d: drained %d rows, want %d", i, rows, want)
							}
						case "early-close":
							if runErr != nil || closeErr != nil || rows == 0 {
								t.Fatalf("open %d: %d rows, NextBatch %v, Close %v", i, rows, runErr, closeErr)
							}
						case "worker-error":
							if !errors.Is(runErr, errWorker) || !errors.Is(closeErr, errWorker) {
								t.Fatalf("open %d: NextBatch %v, Close %v, want %v", i, runErr, closeErr, errWorker)
							}
						}
						l.settled(s)
						if l.dropped != 0 {
							t.Fatalf("open %d: the pool refused %d exact batches", i, l.dropped)
						}
						if t.Failed() {
							t.FailNow()
						}
					}
				})
			}
		}
	}
}

// TestExchangeDropsSwappedArrays: an unordered fan-in hands a whole
// worker batch to its consumer by TrySwap, so the exchange batch comes
// back holding the consumer's array. When that array is oversized or
// growable, Close must drop the batch rather than pool it.
func TestExchangeDropsSwappedArrays(t *testing.T) {
	schema := testSchema()
	consumers := map[string]func() *tuple.Batch{
		"oversized": func() *tuple.Batch { return tuple.NewBatchFor(schema, 4*exec.DefaultBatchSize) },
		"growable":  func() *tuple.Batch { return tuple.NewGrowableBatch(schema.NumCols()) },
	}
	for name, consumer := range consumers {
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", name, p), func(t *testing.T) {
				workers := make([]exec.Operator, p)
				for w := range workers {
					rows := make([]tuple.Row, 2*exec.DefaultBatchSize)
					for i := range rows {
						rows[i] = tuple.IntsRow(int64(i), int64(w))
					}
					workers[w] = exec.NewValues(schema, rows)
				}
				s, err := NewScan(workers, Options{Schema: schema})
				if err != nil {
					t.Fatal(err)
				}
				l := watch(t)
				l.reset(2*p + 1)
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				if n, err := s.NextBatch(consumer()); err != nil || n != exec.DefaultBatchSize {
					t.Fatalf("NextBatch = %d, %v; want a whole swapped batch", n, err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				l.settled(s)
				if l.dropped != 1 {
					t.Errorf("Close dropped %d batches, want the one holding the consumer's array", l.dropped)
				}
			})
		}
	}
}
