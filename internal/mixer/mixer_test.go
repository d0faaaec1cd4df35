package mixer

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
)

// testSpec is a hand-sized stream contract: 100-cycle period, 20 cycles
// of worst-case qmin need, full quality from 60 cycles up.
func testSpec() StreamSpec {
	return StreamSpec{Nominal: 100, MinNeed: 20, FullNeed: 60}
}

func mustBudget(t *testing.T, total core.Cycles, p Policy) *Budget {
	t.Helper()
	b, err := New(total, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecValidate(t *testing.T) {
	bad := []StreamSpec{
		{},
		{Nominal: 100, MinNeed: 0, FullNeed: 50},
		{Nominal: 100, MinNeed: -5, FullNeed: 50},
		{Nominal: 10, MinNeed: 20, FullNeed: 20},
		{Nominal: 100, MinNeed: 20, FullNeed: 10},
		{Nominal: 100, MinNeed: 20, FullNeed: 120},
		{Nominal: 100, MinNeed: 20, FullNeed: 60, Weight: -1},
		{Nominal: core.Inf, MinNeed: 20, FullNeed: 60},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) accepted", i, s)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestAdmissionLadder(t *testing.T) {
	// Total 100, min need 20: exactly 5 streams fit at qmin; the sixth
	// is rejected with ErrBudgetExhausted.
	b := mustBudget(t, 100, Fair)
	var grants []*Grant
	for i := 0; i < 5; i++ {
		g, err := b.Admit(testSpec())
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		grants = append(grants, g)
	}
	if _, err := b.Admit(testSpec()); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("sixth admit: err = %v, want ErrBudgetExhausted", err)
	}
	// At 5 streams there is zero slack: every share is pinned at
	// MinNeed (per-stream qmin) and the budget reports degradation.
	st := b.Stats()
	if !st.Degraded || st.Slack != 0 || st.Granted != 100 {
		t.Fatalf("stats at capacity: %+v", st)
	}
	for i, g := range grants {
		if g.Share() != 20 {
			t.Errorf("stream %d share %v at capacity, want MinNeed 20", i, g.Share())
		}
		if d, err := g.LeaseDelay(); d != 80 || err != nil {
			t.Errorf("stream %d delay %v (err %v), want 80", i, d, err)
		}
	}
	// Releasing one stream returns its reservation: the survivors'
	// shares grow (fair: 20 slack over 4 streams = +5 each).
	grants[0].Release()
	grants[0].Release() // idempotent
	for i, g := range grants[1:] {
		if g.Share() != 25 {
			t.Errorf("stream %d share %v after release, want 25", i+1, g.Share())
		}
	}
	if st := b.Stats(); st.Streams != 4 || st.Degraded {
		t.Fatalf("stats after release: %+v", st)
	}
}

func TestFairWaterFilling(t *testing.T) {
	// Two streams, one small: slack beyond the small stream's nominal
	// cap must flow back to the other.
	b := mustBudget(t, 160, Fair)
	big, err := b.Admit(testSpec()) // nominal 100
	if err != nil {
		t.Fatal(err)
	}
	small, err := b.Admit(StreamSpec{Nominal: 40, MinNeed: 10, FullNeed: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Committed 30, slack 130. Equal split gives 65 each, but the
	// small stream caps at 40 (share 10+30); its remainder lifts the
	// big stream to min(100, 20+100) = 100.
	if got := small.Share(); got != 40 {
		t.Errorf("small share = %v, want its 40 nominal cap", got)
	}
	if got := big.Share(); got != 100 {
		t.Errorf("big share = %v, want 100", got)
	}
	if st := b.Stats(); st.Granted != 140 {
		t.Errorf("granted %v, want 140 (20 undistributable)", st.Granted)
	}
}

func TestWeightedShares(t *testing.T) {
	b := mustBudget(t, 100, Weighted)
	spec := StreamSpec{Nominal: 100, MinNeed: 10, FullNeed: 90}
	heavy := spec
	heavy.Weight = 3
	g1, err := b.Admit(heavy)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := b.Admit(spec) // weight defaults to 1
	if err != nil {
		t.Fatal(err)
	}
	// Committed 20, slack 80 split 3:1 → +60/+20.
	if g1.Share() != 70 || g2.Share() != 30 {
		t.Fatalf("weighted shares %v/%v, want 70/30", g1.Share(), g2.Share())
	}
	// Re-weighting re-partitions deterministically.
	g1.SetWeight(1)
	if g1.Share() != 50 || g2.Share() != 50 {
		t.Fatalf("after SetWeight shares %v/%v, want 50/50", g1.Share(), g2.Share())
	}
	g1.SetWeight(0) // rejected: previous weight stays
	if g1.Share() != 50 {
		t.Fatalf("SetWeight(0) changed share to %v", g1.Share())
	}
}

func TestGreedyFillsCheapestFirst(t *testing.T) {
	b := mustBudget(t, 100, Greedy)
	// cheap reaches full quality at +10, dear at +60.
	cheap, err := b.Admit(StreamSpec{Nominal: 80, MinNeed: 20, FullNeed: 30})
	if err != nil {
		t.Fatal(err)
	}
	dear, err := b.Admit(StreamSpec{Nominal: 90, MinNeed: 20, FullNeed: 80})
	if err != nil {
		t.Fatal(err)
	}
	// Slack 60: cheap is lifted to FullNeed first (+10), dear gets the
	// remaining 50 (+50 → 70, still short of its 80 FullNeed).
	if cheap.Share() != 30 || dear.Share() != 70 {
		t.Fatalf("greedy shares %v/%v, want 30/70", cheap.Share(), dear.Share())
	}
	// With more budget the leftover spreads toward nominal in
	// admission order.
	if err := b.SetTotal(200); err != nil {
		t.Fatal(err)
	}
	// Slack 160: cheap +10 → 30, dear +60 → 80 (both full), leftover
	// 90: cheap first to nominal 80 (+50), then dear +40 → wait, dear
	// caps at min(90, 80+40). Hand-check: cheap 80, dear 90, spent
	// 40+130 = 170, granted ≤ total.
	if cheap.Share() != 80 || dear.Share() != 90 {
		t.Fatalf("greedy shares after SetTotal %v/%v, want 80/90", cheap.Share(), dear.Share())
	}
}

func TestSetTotalRejectsRevocation(t *testing.T) {
	b := mustBudget(t, 100, Fair)
	if _, err := b.Admit(testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Admit(testSpec()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTotal(30); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("SetTotal below committed: err = %v", err)
	}
	if b.Total() != 100 {
		t.Fatalf("failed SetTotal changed total to %v", b.Total())
	}
	if err := b.SetTotal(40); err != nil {
		t.Fatalf("SetTotal at committed: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Fair); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := New(core.Inf, Fair); err == nil {
		t.Error("infinite total accepted")
	}
	if _, err := New(100, Policy(42)); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestConcurrentAdmitReleaseShare hammers the budget from many
// goroutines (run under -race): admissions, releases, share reads and
// re-weights must never corrupt the accounting invariants.
func TestConcurrentAdmitReleaseShare(t *testing.T) {
	b := mustBudget(t, 1000, Weighted)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g, err := b.Admit(testSpec())
				if err != nil {
					if !errors.Is(err, ErrBudgetExhausted) {
						t.Errorf("admit: %v", err)
					}
					continue
				}
				if s := g.Share(); s < 20 || s > 100 {
					t.Errorf("share %v outside [MinNeed, Nominal]", s)
				}
				g.SetWeight(float64(w + 1))
				_, _ = g.LeaseDelay()
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := b.Stats(); st.Streams != 0 || st.Granted != 0 {
		t.Fatalf("leaked reservations: %+v", st)
	}
}

// TestGrantedNeverExceedsTotal property-checks the partitioning across
// policies and stream mixes.
func TestGrantedNeverExceedsTotal(t *testing.T) {
	specs := []StreamSpec{
		{Nominal: 100, MinNeed: 20, FullNeed: 60},
		{Nominal: 50, MinNeed: 5, FullNeed: 50},
		{Nominal: 300, MinNeed: 100, FullNeed: 200, Weight: 2},
		{Nominal: 7, MinNeed: 3, FullNeed: 5},
	}
	for _, pol := range []Policy{Fair, Weighted, Greedy} {
		for total := core.Cycles(130); total <= 1000; total += 97 {
			b := mustBudget(t, total, pol)
			for _, s := range specs {
				if _, err := b.Admit(s); err != nil {
					t.Fatalf("%v total=%v: %v", pol, total, err)
				}
			}
			st := b.Stats()
			if st.Granted > st.Total {
				t.Fatalf("%v total=%v: granted %v > total", pol, total, st.Granted)
			}
			if st.Committed != 128 {
				t.Fatalf("%v total=%v: committed %v", pol, total, st.Committed)
			}
		}
	}
}

func TestHeadroom(t *testing.T) {
	b := mustBudget(t, 100, Fair)
	if got := b.Headroom(testSpec()); got != 5 {
		t.Fatalf("empty headroom = %d, want 5", got)
	}
	g, err := b.Admit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Headroom(testSpec()); got != 4 {
		t.Fatalf("headroom after one admit = %d, want 4", got)
	}
	if got := b.Headroom(StreamSpec{}); got != 0 {
		t.Fatalf("headroom for invalid spec = %d, want 0", got)
	}
	g.Release()
	if got := b.Headroom(testSpec()); got != 5 {
		t.Fatalf("headroom after release = %d, want 5", got)
	}
}

// TestBulkAdmissionIsCheap locks in the O(1) admission path: admitting
// tens of thousands of streams must complete quickly because shares
// re-partition lazily at the next read, not per admission.
func TestBulkAdmissionIsCheap(t *testing.T) {
	const n = 50_000
	spec := StreamSpec{Nominal: 100, MinNeed: 1, FullNeed: 50}
	b := mustBudget(t, n, Fair)
	grants := make([]*Grant, n)
	var err error
	for i := range grants {
		if grants[i], err = b.Admit(spec); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if _, err := b.Admit(spec); err == nil {
		t.Fatal("admission past capacity accepted")
	}
	st := b.Stats()
	if st.Streams != n || st.Committed != n || st.Slack != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if got := grants[0].Share(); got != 1 {
		t.Fatalf("share at capacity = %v, want MinNeed", got)
	}
}
