package account

import (
	"math"
	"strings"
	"testing"

	"redoop/internal/simtime"
)

func TestRegisterSuffixesDuplicates(t *testing.T) {
	l := New()
	a := l.Register("q", "t1")
	b := l.Register("q", "t2")
	c := l.Register("q", "t3")
	if a != "q" || b != "q#2" || c != "q#3" {
		t.Fatalf("got names %q %q %q", a, b, c)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d queries, want 3", len(snap))
	}
	if snap[1].Query != "q#2" || snap[1].Tenant != "t2" {
		t.Fatalf("second account = %+v", snap[1])
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	if got := l.Register("q", "t"); got != "q" {
		t.Fatalf("nil Register returned %q", got)
	}
	l.AddCompute("q", PhaseMap, simtime.Second)
	l.AddIO("q", IODFSRead, 10)
	l.CacheRegistered("q", "pid", 0, 100, 0, simtime.Second)
	l.CacheHit("q", "pid", 0, 0)
	l.CacheLoaded("pid", 0, simtime.Millisecond)
	l.CacheExpired("pid", 0, 0)
	l.Advance(simtime.Time(1))
	if l.Snapshot() != nil || l.OpenResidencies() != nil {
		t.Fatal("nil ledger returned data")
	}
	if err := l.CheckConservation(0); err != nil {
		t.Fatalf("nil CheckConservation: %v", err)
	}
}

func TestByteSecondAccrual(t *testing.T) {
	l := New()
	l.Register("q", "")
	// 1000 bytes resident from T+2s to T+5s = 3000 byte·seconds.
	l.CacheRegistered("q", "p1", 0, 1000, simtime.Time(2*simtime.Second), 0)
	l.CacheExpired("p1", 0, simtime.Time(5*simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-3000) > 1e-9 {
		t.Fatalf("closed accrual = %v byte·s, want 3000", got)
	}
	// Open residency accrues to the watermark on read.
	l.CacheRegistered("q", "p2", 0, 500, simtime.Time(5*simtime.Second), 0)
	l.Advance(simtime.Time(9 * simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-(3000+2000)) > 1e-9 {
		t.Fatalf("open accrual = %v byte·s, want 5000", got)
	}
	// Peak tracks the concurrent maximum, not the sum over time.
	snap := l.Snapshot()[0]
	if snap.PeakResidentBytes != 1000 {
		t.Fatalf("peak = %d, want 1000", snap.PeakResidentBytes)
	}
	if snap.CurResidentBytes != 500 {
		t.Fatalf("cur = %d, want 500", snap.CurResidentBytes)
	}
}

func TestReRegisterClosesOldInterval(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 1000, simtime.Time(0), 0)
	// Refresh at T+4s with new bytes: the first interval must close at
	// 4s (4000 byte·s) and the second runs 4s..10s (6000 byte·s).
	l.CacheRegistered("q", "p1", 0, 1000, simtime.Time(4*simtime.Second), 0)
	l.Advance(simtime.Time(10 * simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-10000) > 1e-9 {
		t.Fatalf("accrual after re-register = %v byte·s, want 10000", got)
	}
	snap := l.Snapshot()[0]
	if snap.CacheRegistered != 2 || snap.CacheExpired != 1 || snap.OpenResidencies != 1 {
		t.Fatalf("counters = %+v", snap)
	}
}

func TestDoubleExpiryDoesNotDoubleCount(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, simtime.Time(0), 0)
	l.CacheExpired("p1", 0, simtime.Time(simtime.Second))
	// A chaos drop may race retirement: the second expiry of the same
	// key must be a no-op.
	l.CacheExpired("p1", 0, simtime.Time(2*simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-100) > 1e-9 {
		t.Fatalf("accrual = %v byte·s, want 100", got)
	}
	snap := l.Snapshot()[0]
	if snap.CacheExpired != 1 {
		t.Fatalf("expired = %d, want 1", snap.CacheExpired)
	}
	if err := l.CheckConservation(1 << 60); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestSavedNetsOutLoadOnlyAfterHit(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, 0, 10*simtime.Second)
	// Load without a hit (fresh build) leaves savings untouched.
	l.CacheLoaded("p1", 0, simtime.Second)
	if got := l.SavedNS("q"); got != 0 {
		t.Fatalf("saved after unarmed load = %d, want 0", got)
	}
	// Hit credits the stored recompute; the next load nets out.
	l.CacheHit("q", "p1", 0, simtime.Time(simtime.Second))
	l.CacheLoaded("p1", 0, 2*simtime.Second)
	if got, want := l.SavedNS("q"), int64(8*simtime.Second); got != want {
		t.Fatalf("saved = %d, want %d", got, want)
	}
	// Only the first load after the hit adjusts.
	l.CacheLoaded("p1", 0, simtime.Second)
	if got, want := l.SavedNS("q"), int64(8*simtime.Second); got != want {
		t.Fatalf("saved after second load = %d, want %d", got, want)
	}
	// A hit on an unknown (already expired) key credits nothing.
	l.CacheHit("q", "gone", 0, 0)
	if got, want := l.SavedNS("q"), int64(8*simtime.Second); got != want {
		t.Fatalf("saved after ghost hit = %d, want %d", got, want)
	}
}

// TestLedger replays a crafted register/hit/load sequence: a hit's
// saving is the registered recompute minus the first load netted after
// it, loads of caches that were not hit leave savings alone, and a hit
// on an unregistered key credits nothing.
func TestLedger(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "P1", 0, 1000, 0, 100)
	l.CacheRegistered("q", "P2", 0, 500, 0, 50)
	l.CacheHit("q", "P1", 0, 1)
	l.CacheLoaded("P1", 0, 20)
	// A second read of P1 in the same recurrence is not netted: a
	// rebuilt cache would pay it too.
	l.CacheLoaded("P1", 0, 15)
	// P2 is read without a hit (freshly built and consumed).
	l.CacheLoaded("P2", 0, 10)
	// P9 was never registered: the hit credits nothing and arms no
	// adjustment.
	l.CacheHit("q", "P9", 0, 1)
	l.CacheLoaded("P9", 0, 500)

	snap := l.Snapshot()[0]
	if snap.SavedNS != 80 {
		t.Fatalf("saved = %d, want 100 - 20 = 80", snap.SavedNS)
	}
	if snap.CacheHits != 1 {
		t.Fatalf("hits = %d, want 1 (the unregistered hit does not count)", snap.CacheHits)
	}
	if err := l.CheckConservation(1 << 60); err != nil {
		t.Fatalf("CheckConservation: %v", err)
	}
}

// TestLedgerViolationDetected: a netted load larger than the recompute
// its hit credited fails CheckConservation; one equal to it, or one on
// a cache that was not hit, does not.
func TestLedgerViolationDetected(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "P1", 0, 100, 0, 10)
	l.CacheLoaded("P1", 0, 50) // no hit armed: not a reuse
	l.CacheHit("q", "P1", 0, 1)
	l.CacheLoaded("P1", 0, 10) // break-even: allowed
	if err := l.CheckConservation(1 << 60); err != nil {
		t.Fatalf("CheckConservation rejected a break-even reuse: %v", err)
	}
	l.CacheHit("q", "P1", 0, 2)
	l.CacheLoaded("P1", 0, 50)
	err := l.CheckConservation(1 << 60)
	if err == nil {
		t.Fatal("CheckConservation accepted a load cost exceeding the recompute cost")
	}
	if !strings.Contains(err.Error(), "query q") {
		t.Fatalf("violation does not name the query: %v", err)
	}
	// The check honours the query filter.
	l.Register("other", "")
	if err := l.CheckConservation(1<<60, "other"); err != nil {
		t.Fatalf("violation leaked into another query's check: %v", err)
	}
}

func TestSlotComputeExcludesShuffle(t *testing.T) {
	l := New()
	l.Register("a", "")
	l.Register("b", "")
	l.AddCompute("a", PhaseMap, 3*simtime.Second)
	l.AddCompute("a", PhaseShuffle, 100*simtime.Second) // elapsed, not slot time
	l.AddCompute("a", PhaseSort, simtime.Second)
	l.AddCompute("b", PhaseReduce, 2*simtime.Second)
	l.AddCompute("b", PhaseCacheLoad, simtime.Second)
	if got, want := l.SlotComputeNS("a"), int64(4*simtime.Second); got != want {
		t.Fatalf("SlotComputeNS(a) = %d, want %d", got, want)
	}
	if got, want := l.SlotComputeNS(), int64(7*simtime.Second); got != want {
		t.Fatalf("SlotComputeNS(all) = %d, want %d", got, want)
	}
	snap := l.Snapshot()
	if snap[0].TotalComputeNS != int64(104*simtime.Second) {
		t.Fatalf("TotalComputeNS = %d", snap[0].TotalComputeNS)
	}
	if snap[0].SlotComputeNS != int64(4*simtime.Second) {
		t.Fatalf("snapshot SlotComputeNS = %d", snap[0].SlotComputeNS)
	}
}

func TestCheckConservation(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.AddCompute("q", PhaseMap, 5*simtime.Second)
	if err := l.CheckConservation(int64(5 * simtime.Second)); err != nil {
		t.Fatalf("exact busy time must pass: %v", err)
	}
	if err := l.CheckConservation(int64(4 * simtime.Second)); err == nil {
		t.Fatal("attributed compute above busy time must fail")
	} else if !strings.Contains(err.Error(), "exceeds cluster busy time") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestConservationCatchesLeakedResidency(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, 0, 0)
	l.CacheRegistered("q", "p2", 1, 100, 0, 0)
	l.CacheExpired("p1", 0, simtime.Time(simtime.Second))
	if err := l.CheckConservation(1 << 60); err != nil {
		t.Fatalf("registered == expired + open must pass: %v", err)
	}
	// Simulate an accounting bug: force the counter out of sync.
	l.mu.Lock()
	l.queries["q"].registered++
	l.mu.Unlock()
	if err := l.CheckConservation(1 << 60); err == nil {
		t.Fatal("leaked residency must fail conservation")
	}
}

func TestROIAndIO(t *testing.T) {
	l := New()
	l.Register("q", "ten")
	l.AddIO("q", IODFSRead, 100)
	l.AddIO("q", IODFSRead, 50)
	l.AddIO("q", IOShuffle, 10)
	l.CacheRegistered("q", "p1", 0, 1000, 0, 4*simtime.Second)
	l.CacheHit("q", "p1", 0, simtime.Time(simtime.Second))
	l.Advance(simtime.Time(2 * simtime.Second))
	snap := l.Snapshot()[0]
	if snap.IOBytes["dfs-read"] != 150 || snap.IOBytes["shuffle"] != 10 {
		t.Fatalf("io = %+v", snap.IOBytes)
	}
	// 1000 bytes × 2s = 2000 byte·s; saved 4e9 ns → ROI 2e6 ns per byte·s.
	if math.Abs(snap.CacheByteSeconds-2000) > 1e-9 {
		t.Fatalf("byte·s = %v", snap.CacheByteSeconds)
	}
	if want := float64(4*simtime.Second) / 2000; math.Abs(snap.CacheROI-want) > 1e-6 {
		t.Fatalf("ROI = %v, want %v", snap.CacheROI, want)
	}
	if snap.Tenant != "ten" {
		t.Fatalf("tenant = %q", snap.Tenant)
	}
}

func TestOpenResidenciesSorted(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "b", 0, 1, 0, 0)
	l.CacheRegistered("q", "a", 1, 2, 0, 0)
	rs := l.OpenResidencies()
	if len(rs) != 2 || rs[0].PID != "a" || rs[1].PID != "b" {
		t.Fatalf("residencies = %+v", rs)
	}
}
