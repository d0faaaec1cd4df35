package mixer

import (
	"context"
	"testing"

	"repro/internal/core"
)

// FuzzMixerLifecycle drives a Budget through fuzzer-chosen interleavings
// of the full lifecycle surface — Admit (hard and soft), AdmitWait,
// Release, lease renewal, Rebalance (epoch advance + reaper), SetTotal —
// and asserts the accounting invariants after every op: Σ shares ≤
// total, no negative share, committed sums consistent. The input is an
// opcode/argument byte stream: ops[2k] selects the op, ops[2k+1]
// parameterises it.
func FuzzMixerLifecycle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 0, 2, 0, 3, 0, 3, 0, 3, 0})             // admit, shed via reaper
	f.Add([]byte{0, 0, 0, 1, 0, 2, 5, 3, 4, 0, 5, 200, 2, 1, 3, 0})     // shrink + release mid-flight
	f.Add([]byte{1, 0, 1, 1, 5, 1, 3, 0, 6, 0, 0, 0, 2, 0, 4, 1})       // soft demotion + AdmitWait
	f.Add([]byte{0, 0, 4, 0, 3, 0, 4, 0, 3, 0, 4, 0, 3, 0, 3, 0, 3, 0}) // renewals keep the lease alive
	f.Fuzz(func(t *testing.T, ops []byte) {
		b, err := New(500, Fair)
		if err != nil {
			t.Fatal(err)
		}
		b.SetLease(2)
		deadCtx, cancel := context.WithCancel(context.Background())
		cancel()
		var grants []*Grant
		hard := testSpec() // MinNeed 20, FullNeed 60, Nominal 100
		soft := hard
		soft.Soft = true
		for pc := 0; pc+1 < len(ops); pc += 2 {
			arg := int(ops[pc+1])
			switch ops[pc] % 7 {
			case 0:
				if g, err := b.Admit(hard); err == nil {
					grants = append(grants, g)
				}
			case 1:
				if g, err := b.Admit(soft); err == nil {
					grants = append(grants, g)
				}
			case 2:
				if len(grants) > 0 {
					grants[arg%len(grants)].Release()
				}
			case 3:
				b.Rebalance() // advances the lease epoch, runs the reaper
			case 4:
				if len(grants) > 0 {
					// Cycle-boundary activity: renews the lease.
					_, _ = grants[arg%len(grants)].LeaseDelay()
				}
			case 5:
				// Any positive finite total; shrinks below hard reserves
				// must be refused without corrupting state.
				_ = b.SetTotal(core.Cycles(20 * (arg + 1)))
			case 6:
				// A dead ctx is a deterministic refusal: AdmitWait must
				// report the cancellation without handing out a grant,
				// however much capacity is free.
				if g, err := b.AdmitWait(deadCtx, hard); err == nil {
					t.Fatalf("op %d: AdmitWait admitted %v under a dead ctx", pc/2, g.Spec())
				}
			}
			st := b.Stats()
			if st.Granted > st.Total {
				t.Fatalf("op %d: granted %v > total %v", pc/2, st.Granted, st.Total)
			}
			if st.Granted < 0 || st.Committed < 0 || st.HardCommitted < 0 {
				t.Fatalf("op %d: negative accounting: %+v", pc/2, st)
			}
			if st.HardCommitted > st.Committed {
				t.Fatalf("op %d: hard floor %v exceeds committed %v", pc/2, st.HardCommitted, st.Committed)
			}
		}
		// Final sweep: no grant may ever expose a negative share, and
		// retiring everything must drain the budget to zero.
		for _, g := range grants {
			if s := g.Share(); s < 0 {
				t.Fatalf("negative share %v", s)
			}
			g.Release()
		}
		if st := b.Stats(); st.Streams != 0 || st.Committed != 0 || st.Granted != 0 {
			t.Fatalf("budget did not drain: %+v", st)
		}
	})
}
