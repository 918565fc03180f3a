package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// faultTestDevice builds a device with one 32-page space, every page
// stamped with a valid checksum so corruption tests can verify.
func faultTestDevice(t *testing.T) (*Device, SpaceID) {
	t.Helper()
	d := newTestDevice(t)
	sp := d.CreateSpace()
	for i := 0; i < 32; i++ {
		page := fill(byte(i), 64)
		StampChecksum(page)
		if _, err := d.AppendPage(sp, page); err != nil {
			t.Fatalf("AppendPage: %v", err)
		}
	}
	return d, sp
}

func TestFaultPolicyDeterministic(t *testing.T) {
	// Two devices with identical policies must fail on exactly the same
	// pages: decisions are pure hashes, not RNG-stream draws.
	var errsA, errsB []int
	for run := 0; run < 2; run++ {
		d, sp := faultTestDevice(t)
		d.SetFaultPolicy(NewFaultPolicy(42, FaultRule{
			Space: sp, Kind: FaultTransient, Rate: 0.3,
		}))
		for p := int64(0); p < 32; p++ {
			_, err := d.ReadPage(sp, p)
			if err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("page %d: error %v, want ErrInjected", p, err)
				}
				if run == 0 {
					errsA = append(errsA, int(p))
				} else {
					errsB = append(errsB, int(p))
				}
			}
		}
	}
	if len(errsA) == 0 || len(errsA) == 32 {
		t.Fatalf("rate 0.3 over 32 pages hit %d times; want a strict subset", len(errsA))
	}
	if len(errsA) != len(errsB) {
		t.Fatalf("runs disagree: %v vs %v", errsA, errsB)
	}
	for i := range errsA {
		if errsA[i] != errsB[i] {
			t.Fatalf("runs disagree at %d: %v vs %v", i, errsA, errsB)
		}
	}
}

func TestFaultTransientReRollsPermanentDoesNot(t *testing.T) {
	d, sp := faultTestDevice(t)
	d.SetFaultPolicy(NewFaultPolicy(7, FaultRule{
		Space: sp, PageLo: 0, PageHi: 1, Kind: FaultTransient, Rate: 0.5,
	}))
	// A 0.5 transient rule re-rolls per attempt: over many attempts the
	// page must both fail and succeed at least once.
	var failed, succeeded bool
	for i := 0; i < 64; i++ {
		if _, err := d.ReadPage(sp, 0); err != nil {
			failed = true
		} else {
			succeeded = true
		}
	}
	if !failed || !succeeded {
		t.Fatalf("transient rate 0.5: failed=%v succeeded=%v; want both", failed, succeeded)
	}

	d2, sp2 := faultTestDevice(t)
	d2.SetFaultPolicy(NewFaultPolicy(7, FaultRule{
		Space: sp2, Kind: FaultPermanent, Rate: 0.5,
	}))
	// Permanent decisions ignore the attempt number: every retry of a
	// dead page fails, every retry of a healthy page succeeds.
	for p := int64(0); p < 32; p++ {
		_, first := d2.ReadPage(sp2, p)
		for i := 0; i < 4; i++ {
			_, again := d2.ReadPage(sp2, p)
			if (first == nil) != (again == nil) {
				t.Fatalf("page %d flipped between attempts: %v then %v", p, first, again)
			}
		}
		if first != nil && !errors.Is(first, ErrPermanentFault) {
			t.Fatalf("page %d: %v, want ErrPermanentFault", p, first)
		}
	}
}

func TestFaultCountersAndLatency(t *testing.T) {
	d, sp := faultTestDevice(t)
	d.SetFaultPolicy(NewFaultPolicy(1, FaultRule{
		Space: sp, Kind: FaultLatency, Rate: 1, ExtraCost: 100,
	}))
	base := d.Stats()
	if _, err := d.ReadRun(sp, 0, 4); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	delta := d.Stats().Sub(base)
	if delta.LatencySpikes != 4 {
		t.Fatalf("LatencySpikes = %d, want 4", delta.LatencySpikes)
	}
	if want := 4 * 100.0; delta.IOTime < want {
		t.Fatalf("IOTime = %v, want at least %v of spike cost", delta.IOTime, want)
	}
	if delta.Faults != 0 || delta.Corruptions != 0 || delta.Retries != 0 {
		t.Fatalf("unexpected counters: %+v", delta)
	}

	d.SetFaultPolicy(NewFaultPolicy(1, FaultRule{
		Space: sp, Kind: FaultTransient, Rate: 1,
	}))
	base = d.Stats()
	if _, err := d.ReadPage(sp, 0); err == nil {
		t.Fatal("rate-1 transient rule did not fail the read")
	}
	delta = d.Stats().Sub(base)
	if delta.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", delta.Faults)
	}
	if delta.PagesRead != 0 {
		t.Fatalf("failed read transferred %d pages", delta.PagesRead)
	}
}

func TestFaultCorruptionDetectedAndDeviceIntact(t *testing.T) {
	d, sp := faultTestDevice(t)
	intact, err := d.ReadPage(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), intact...)

	d.SetFaultPolicy(NewFaultPolicy(9, FaultRule{
		Space: sp, PageLo: 3, PageHi: 4, Kind: FaultCorrupt, Rate: 1,
	}))
	page, err := d.ReadPage(sp, 3)
	if err != nil {
		t.Fatalf("corrupted read errored: %v", err)
	}
	if VerifyChecksum(page) {
		t.Fatal("corrupted page passed checksum verification")
	}
	if bytes.Equal(page, keep) {
		t.Fatal("corrupt rule returned unmodified bytes")
	}
	base := d.Stats()
	if _, err := d.ReadPage(sp, 3); err != nil {
		t.Fatal(err)
	}
	if c := d.Stats().Sub(base).Corruptions; c != 1 {
		t.Fatalf("Corruptions delta = %d, want 1", c)
	}

	// The damage is applied to a copy: detaching the policy shows the
	// device's own bytes were never touched.
	d.SetFaultPolicy(nil)
	page, err = d.ReadPage(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, keep) {
		t.Fatal("device page mutated by corruption injection")
	}
	if !VerifyChecksum(page) {
		t.Fatal("intact page failed checksum verification")
	}
}

func TestChecksumRoundTripAndTamperDetection(t *testing.T) {
	page := fill(0xCD, 64)
	StampChecksum(page)
	if !VerifyChecksum(page) {
		t.Fatal("freshly stamped page failed verification")
	}
	// Flipping any byte outside the checksum field must be detected.
	for _, i := range []int{0, 7, 16, 40, 63} {
		page[i] ^= 1
		if VerifyChecksum(page) {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		page[i] ^= 1
	}
}

func TestFaultRuleScoping(t *testing.T) {
	d, sp := faultTestDevice(t)
	other := d.CreateSpace()
	page := fill(0xEE, 64)
	StampChecksum(page)
	if _, err := d.AppendPage(other, page); err != nil {
		t.Fatal(err)
	}
	d.SetFaultPolicy(NewFaultPolicy(3, FaultRule{
		Space: sp, PageLo: 10, PageHi: 20, Kind: FaultPermanent, Rate: 1,
	}))
	for p := int64(0); p < 32; p++ {
		_, err := d.ReadPage(sp, p)
		inRange := p >= 10 && p < 20
		if inRange && err == nil {
			t.Fatalf("page %d inside rule range read cleanly", p)
		}
		if !inRange && err != nil {
			t.Fatalf("page %d outside rule range failed: %v", p, err)
		}
	}
	if _, err := d.ReadPage(other, 0); err != nil {
		t.Fatalf("other space hit by space-scoped rule: %v", err)
	}

	d.SetFaultPolicy(NewFaultPolicy(3, FaultRule{
		Space: AnySpace, Kind: FaultPermanent, Rate: 1,
	}))
	if _, err := d.ReadPage(other, 0); err == nil {
		t.Fatal("AnySpace rule missed a space")
	}
}

func TestFaultErrorClassification(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
		fault     bool
	}{
		{ErrInjected, true, true},
		{ErrPageCorrupt, true, true},
		{ErrPermanentFault, false, true},
		{ErrOutOfRange, false, false},
		{nil, false, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
		}
		if got := IsFault(c.err); got != c.fault {
			t.Errorf("IsFault(%v) = %v, want %v", c.err, got, c.fault)
		}
	}
}

// TestReadRunIntoMatchesReadRun: the same random run reads through
// ReadRun on one device and ReadRunInto on an identical one return the
// same pages, the same errors and the same Stats, with no fault policy,
// with one that fails and delays reads but corrupts none, and with one
// that corrupts pages. A failed ReadRunInto leaves dst as it was.
func TestReadRunIntoMatchesReadRun(t *testing.T) {
	policies := map[string]func(SpaceID) *FaultPolicy{
		"none": func(SpaceID) *FaultPolicy { return nil },
		"transient+latency": func(sp SpaceID) *FaultPolicy {
			return NewFaultPolicy(5,
				FaultRule{Space: sp, Kind: FaultTransient, Rate: 0.1},
				FaultRule{Space: sp, Kind: FaultLatency, Rate: 0.3, ExtraCost: 7})
		},
		"corrupt": func(sp SpaceID) *FaultPolicy {
			return NewFaultPolicy(6, FaultRule{Space: sp, Kind: FaultCorrupt, Rate: 0.3})
		},
	}
	for name, policy := range policies {
		a, spA := faultTestDevice(t)
		b, spB := faultTestDevice(t)
		a.SetFaultPolicy(policy(spA))
		b.SetFaultPolicy(policy(spB))
		chA, chB := a.NewChannel(), b.NewChannel()
		rng := rand.New(rand.NewSource(1))
		dst := make([][]byte, 32)
		for i := 0; i < 300; i++ {
			start := rng.Int63n(34) - 1 // -1 and 32.. are out of range
			n := rng.Int63n(6) + 1
			want, errA := chA.ReadRun(spA, start, n)
			for j := range dst {
				dst[j] = nil
			}
			errB := chB.ReadRunInto(spB, start, dst[:n])
			if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
				t.Fatalf("%s read %d [%d,+%d): ReadRun err %v, ReadRunInto err %v", name, i, start, n, errA, errB)
			}
			for j := range dst[:n] {
				switch {
				case errB != nil && dst[j] != nil:
					t.Fatalf("%s read %d: failed ReadRunInto wrote dst[%d]", name, i, j)
				case errB == nil && !bytes.Equal(dst[j], want[j]):
					t.Fatalf("%s read %d: page %d differs", name, i, start+int64(j))
				}
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("%s read %d: device stats\n ReadRun     %+v\n ReadRunInto %+v", name, i, sa, sb)
			}
			if sa, sb := chA.Stats(), chB.Stats(); sa != sb {
				t.Fatalf("%s read %d: channel stats\n ReadRun     %+v\n ReadRunInto %+v", name, i, sa, sb)
			}
		}
		if name == "corrupt" && a.Stats().Corruptions == 0 {
			t.Fatal("the corrupting policy corrupted nothing")
		}
	}
	if err := newTestDevice(t).NewChannel().ReadRunInto(0, 0, nil); err == nil {
		t.Error("ReadRunInto of no pages accepted")
	}
}
