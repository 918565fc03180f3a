// Fault injection. A FaultPolicy attached to a Device makes reads
// fail, slow down, or return corrupted payloads according to
// deterministic, seed-driven rules. Determinism matters more than
// realism here: a fault decision is a pure hash of (seed, space, page,
// attempt, rule), never a draw from a shared RNG stream, so a fault
// schedule is reproducible and — crucially — independent of goroutine
// interleaving. The chaos tests rely on this to compare a faulty run
// against a fault-free oracle.
package disk

import (
	"errors"
	"fmt"
)

// ErrPermanentFault is the error returned for reads hit by a
// FaultPermanent rule. Permanent faults are attempt-independent:
// retrying the same page fails the same way, which is what drives the
// planner's graceful-degradation fallback (index → smooth → full).
var ErrPermanentFault = errors.New("disk: permanent I/O failure")

// ErrPageCorrupt is returned when a page fails checksum verification.
// The device itself returns the corrupted payload silently (like real
// hardware); the layer that decodes the page detects the damage via
// VerifyChecksum and wraps this sentinel.
var ErrPageCorrupt = errors.New("disk: page checksum mismatch")

// IsTransient reports whether err is a fault that a retry can clear:
// an injected transient read error, or a corrupted payload (re-reading
// re-rolls the corruption decision). Permanent faults are not
// transient.
func IsTransient(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrPageCorrupt)
}

// IsFault reports whether err originates from fault injection or
// integrity verification (transient, permanent, or corruption).
func IsFault(err error) bool {
	return errors.Is(err, ErrInjected) || errors.Is(err, ErrPermanentFault) ||
		errors.Is(err, ErrPageCorrupt)
}

// FaultKind classifies what a FaultRule does to a read it hits.
type FaultKind int

const (
	// FaultTransient fails the read with ErrInjected; a retry re-rolls
	// (the decision hash includes the per-page attempt number), so
	// bounded retry recovers unless Rate is 1.
	FaultTransient FaultKind = iota
	// FaultPermanent fails the read with ErrPermanentFault on every
	// attempt (the decision ignores the attempt number).
	FaultPermanent
	// FaultLatency lets the read succeed but charges ExtraCost extra
	// simulated I/O time — a slow sector, not a failure.
	FaultLatency
	// FaultCorrupt lets the read "succeed" but returns a bit-flipped
	// copy of the page, detectable by checksum verification.
	FaultCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultLatency:
		return "latency"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// AnySpace makes a FaultRule match every space on the device.
const AnySpace SpaceID = -1

// FaultRule targets one kind of fault at a page range of one space.
type FaultRule struct {
	// Space selects the space the rule applies to; AnySpace matches all.
	Space SpaceID
	// PageLo and PageHi bound the targeted pages to [PageLo, PageHi);
	// PageHi == 0 means "to the end of the space".
	PageLo, PageHi int64
	// Kind is what happens to a read the rule hits.
	Kind FaultKind
	// Rate is the per-page hit probability in [0, 1]; 1 hits always.
	Rate float64
	// ExtraCost is the simulated I/O time a FaultLatency hit adds.
	ExtraCost float64
}

func (r FaultRule) matches(id SpaceID, page int64) bool {
	if r.Space != AnySpace && r.Space != id {
		return false
	}
	if page < r.PageLo {
		return false
	}
	return r.PageHi == 0 || page < r.PageHi
}

type faultKey struct {
	space SpaceID
	page  int64
}

// FaultPolicy is a set of FaultRules plus the seed that makes their
// decisions deterministic. Attach one with Device.SetFaultPolicy. The
// policy's mutable state (per-page attempt counters) is guarded by the
// owning device's mutex; do not share one policy across devices.
type FaultPolicy struct {
	seed     int64
	rules    []FaultRule
	attempts map[faultKey]uint64
}

// NewFaultPolicy builds a policy from rules, evaluated in order per
// page; the first error-kind rule that hits wins, while latency and
// corruption rules accumulate.
func NewFaultPolicy(seed int64, rules ...FaultRule) *FaultPolicy {
	return &FaultPolicy{
		seed:     seed,
		rules:    append([]FaultRule(nil), rules...),
		attempts: make(map[faultKey]uint64),
	}
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed
// avalanche hash.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// roll returns a uniform pseudo-random value in [0, 1) that is a pure
// function of (seed, rule, space, page, attempt).
func (p *FaultPolicy) roll(rule int, id SpaceID, page int64, attempt uint64) float64 {
	h := mix64(uint64(p.seed) + 0x9e3779b97f4a7c15)
	for _, v := range [...]uint64{uint64(rule), uint64(id), uint64(page), attempt} {
		h = mix64(h ^ (v + 0x9e3779b97f4a7c15))
	}
	return float64(h>>11) / (1 << 53)
}

// faultDecision is the outcome of evaluating a policy over one run
// read.
type faultDecision struct {
	// err, when non-nil, fails the whole run (first hit wins).
	err error
	// extraCost is the summed latency-spike cost to add to IOTime.
	extraCost float64
	// latency counts latency-spike hits.
	latency int64
	// corrupt lists run-relative indices of pages to return corrupted.
	corrupt []int64
}

// evaluate rolls every rule against every page of the run [start,
// start+n). Called under the device mutex. Each evaluated page
// consumes one attempt number, so a retried read (same pages, next
// attempt) re-rolls its transient and corruption decisions while
// permanent decisions stay fixed.
func (p *FaultPolicy) evaluate(id SpaceID, start, n int64) faultDecision {
	var dec faultDecision
	for i := int64(0); i < n; i++ {
		page := start + i
		key := faultKey{space: id, page: page}
		attempt := p.attempts[key]
		p.attempts[key] = attempt + 1
		for ri, rule := range p.rules {
			if !rule.matches(id, page) {
				continue
			}
			switch rule.Kind {
			case FaultTransient:
				if p.roll(ri, id, page, attempt) < rule.Rate {
					dec.err = fmt.Errorf("%w: space %d page %d (attempt %d)",
						ErrInjected, id, page, attempt)
					return dec
				}
			case FaultPermanent:
				// Attempt-independent: the page is dead, not flaky.
				if p.roll(ri, id, page, 0) < rule.Rate {
					dec.err = fmt.Errorf("%w: space %d page %d",
						ErrPermanentFault, id, page)
					return dec
				}
			case FaultLatency:
				if p.roll(ri, id, page, attempt) < rule.Rate {
					dec.extraCost += rule.ExtraCost
					dec.latency++
				}
			case FaultCorrupt:
				if p.roll(ri, id, page, attempt) < rule.Rate {
					dec.corrupt = append(dec.corrupt, i)
				}
			}
		}
	}
	return dec
}

// SetFaultPolicy attaches p to the device (nil detaches). With no
// policy attached every fault path is a single atomic load — reads
// behave exactly as without this file.
func (d *Device) SetFaultPolicy(p *FaultPolicy) {
	d.faults.Store(p)
}

// FaultPolicy returns the attached policy, or nil.
func (d *Device) FaultPolicy() *FaultPolicy {
	return d.faults.Load()
}

// Faulty reports whether a fault policy is attached. Readers that
// decode pages use it to decide whether checksum verification is
// worth the cycles.
func (d *Device) Faulty() bool {
	return d.faults.Load() != nil
}

// ChargeRetryBackoff charges the simulated-clock cost of backing off
// before retry number attempt+1 (zero-based): a linearly growing wait,
// modelled as attempt+1 random-access penalties, plus one Retries
// count. The buffer pool calls this between read attempts so retried
// queries get visibly slower, matching how a wall-clock backoff would
// show up in latency.
func (c *Channel) ChargeRetryBackoff(attempt int) {
	d := c.dev
	d.mu.Lock()
	var delta Stats
	delta.Retries++
	delta.IOTime += d.profile.RandCost * float64(attempt+1)
	c.charge(delta)
	d.mu.Unlock()
}
