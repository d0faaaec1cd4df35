package core

import "fmt"

// This file implements the paper's extension for iterative programs
// ("compositional generation of EDF schedules for iterative programs",
// section 4): when a cycle is the n-fold chained iteration of a body
// graph and the only finite deadline is the end-of-cycle budget, the
// constraint tables are affine in the number of remaining iterations.
// Instead of 2·|Q|·(9n) precomputed slacks, the controller stores
// 2·|Q|·9 suffix sums over one body — constant memory in n, which is
// what keeps the paper's <=1% memory overhead claim honest for
// N-macroblock frames — and re-budgeting between frames becomes O(1).

// Evaluator is the Quality Manager's admissibility oracle along a fixed
// schedule order: position i is the number of completed actions, t the
// elapsed time. Tables (generic) and IterativeTables (body-periodic)
// both implement it.
type Evaluator interface {
	// AllowedAv is the table form of Qual_Const^av.
	AllowedAv(qi, i int, t Cycles) bool
	// AllowedWc is the table form of Qual_Const^wc.
	AllowedWc(qi, i int, t Cycles) bool
}

// Allowed evaluates the conjunction on any Evaluator.
func Allowed(ev Evaluator, qi, i int, t Cycles) bool {
	return ev.AllowedAv(qi, i, t) && ev.AllowedWc(qi, i, t)
}

var _ Evaluator = (*Tables)(nil)
var _ Evaluator = (*IterativeTables)(nil)

// IterativeTables is the constant-memory evaluator for a cycle that is
// the chained n-fold unrolling of a body, with a single end-of-cycle
// deadline (the frame budget). The schedule order must visit iterations
// in order, with the same in-body order every iteration.
type IterativeTables struct {
	bodyLen int
	iters   int
	budget  Cycles

	// Per level: suffix sums of Cav over one body (index j = sum over
	// in-body positions j..bodyLen-1), and the full-body sum.
	sufAv     [][]Cycles
	bodySumAv []Cycles
	// Worst case at the decision level for the in-body position.
	cwcAt [][]Cycles
	// Fallback tail at qmin/worst case: suffix within the body after
	// the decided action, and the full-body sum.
	sufWcMin     []Cycles
	bodySumWcMin Cycles

	order []ActionID
}

// NewIterativeTables builds the evaluator from the body-level families
// and the in-body schedule order. bodyOrder must be a schedule of the
// body graph; iters is the number of chained iterations; budget the
// end-of-cycle deadline.
func NewIterativeTables(body *System, bodyOrder []ActionID, iters int, budget Cycles) (*IterativeTables, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("core: iterative tables need a positive iteration count, got %d", iters)
	}
	if !body.Graph.IsSchedule(bodyOrder) {
		return nil, fmt.Errorf("core: bodyOrder is not a schedule of the body graph")
	}
	bl := len(bodyOrder)
	nl := len(body.Levels)
	it := &IterativeTables{bodyLen: bl, iters: iters, budget: budget}
	it.sufAv = make([][]Cycles, nl)
	it.bodySumAv = make([]Cycles, nl)
	it.cwcAt = make([][]Cycles, nl)
	it.sufWcMin = make([]Cycles, bl+1)
	for qi := 0; qi < nl; qi++ {
		cav := body.Cav.AtIndex(qi)
		cwc := body.Cwc.AtIndex(qi)
		suf := make([]Cycles, bl+1)
		for j := bl - 1; j >= 0; j-- {
			suf[j] = suf[j+1].AddSat(cav[bodyOrder[j]])
		}
		it.sufAv[qi] = suf
		it.bodySumAv[qi] = suf[0]
		at := make([]Cycles, bl)
		for j := 0; j < bl; j++ {
			at[j] = cwc[bodyOrder[j]]
		}
		it.cwcAt[qi] = at
	}
	cwcMin := body.Cwc.AtIndex(0)
	for j := bl - 1; j >= 0; j-- {
		it.sufWcMin[j] = it.sufWcMin[j+1].AddSat(cwcMin[bodyOrder[j]])
	}
	it.bodySumWcMin = it.sufWcMin[0]

	// Materialise the full schedule order once (needed by the
	// controller for action identities; IDs follow Graph.Unroll layout).
	it.order = make([]ActionID, 0, bl*iters)
	for k := 0; k < iters; k++ {
		for _, a := range bodyOrder {
			it.order = append(it.order, ActionID(k*body.Graph.Len()+int(a)))
		}
	}
	return it, nil
}

// Order returns the full unrolled schedule order.
func (it *IterativeTables) Order() []ActionID { return it.order }

// Budget returns the current end-of-cycle deadline.
func (it *IterativeTables) Budget() Cycles { return it.budget }

// SetBudget re-targets the evaluator to a new frame budget in O(1).
func (it *IterativeTables) SetBudget(b Cycles) { it.budget = b }

// UpdateAverages recomputes the average-time suffix sums in place from
// the body system's (possibly relearned) Cav family. Worst-case data is
// untouched, so safety is unaffected; this is the hook for online
// learning of averages. The body order must be the one the tables were
// built with.
func (it *IterativeTables) UpdateAverages(body *System, bodyOrder []ActionID) error {
	if len(bodyOrder) != it.bodyLen {
		return fmt.Errorf("core: UpdateAverages body order has %d actions, tables built for %d", len(bodyOrder), it.bodyLen)
	}
	for qi := range it.sufAv {
		cav := body.Cav.AtIndex(qi)
		suf := it.sufAv[qi]
		suf[it.bodyLen] = 0
		for j := it.bodyLen - 1; j >= 0; j-- {
			suf[j] = suf[j+1].AddSat(cav[bodyOrder[j]])
		}
		it.bodySumAv[qi] = suf[0]
	}
	return nil
}

// unbounded reports whether every level is admissible at position i:
// past the end of the cycle, or under an infinite budget.
func (it *IterativeTables) unbounded(i int) bool {
	return i >= it.bodyLen*it.iters || it.budget.IsInf()
}

// at decomposes position i into its in-body index j and the number r
// of whole body iterations after the current one: the level-independent
// part of every probe at i.
func (it *IterativeTables) at(i int) (j int, r Cycles) {
	return i % it.bodyLen, Cycles(it.iters - 1 - i/it.bodyLen)
}

// wcTail is the level-independent worst-case fallback tail after the
// decided action: Σ Cwc_qmin over the rest of its body and the r bodies
// after it.
func (it *IterativeTables) wcTail(j int, r Cycles) Cycles {
	return it.sufWcMin[j+1].AddSat(it.bodySumWcMin.MulSat(r))
}

// check tests level index qi at in-body index j, with r iterations
// left and the position's wcTail, against Qual_Const^av (when av:
// t <= budget − Σ Cav_q(remaining)) and Qual_Const^wc (when wc:
// t <= budget − Cwc_q(next) − tail). The budget must be finite.
func (it *IterativeTables) check(qi, j int, r, tail, t Cycles, av, wc bool) bool {
	if av {
		rem := it.sufAv[qi][j].AddSat(it.bodySumAv[qi].MulSat(r))
		//qos:overflow-ok budget and rem are finite non-negative (IsInf is tested first, and callers rule out an infinite budget); their difference is within (−MaxInt64, MaxInt64]
		if rem.IsInf() || t > it.budget-rem {
			return false
		}
	}
	if wc {
		need := it.cwcAt[qi][j].AddSat(tail)
		//qos:overflow-ok budget and need are finite non-negative (IsInf is tested first, and callers rule out an infinite budget); their difference is within (−MaxInt64, MaxInt64]
		if need.IsInf() || t > it.budget-need {
			return false
		}
	}
	return true
}

// AllowedAv implements Evaluator: t <= budget − Σ Cav_q(remaining).
func (it *IterativeTables) AllowedAv(qi, i int, t Cycles) bool {
	if it.unbounded(i) {
		return true
	}
	j, r := it.at(i)
	return it.check(qi, j, r, 0, t, true, false)
}

// AllowedWc implements Evaluator: t <= budget − Cwc_q(next) − Σ
// Cwc_qmin(tail).
func (it *IterativeTables) AllowedWc(qi, i int, t Cycles) bool {
	if it.unbounded(i) {
		return true
	}
	j, r := it.at(i)
	return it.check(qi, j, r, it.wcTail(j, r), t, false, true)
}

// MaxAdmissibleLevel implements LevelSelector with O(1) slack
// evaluation per probe: the position decomposition and the worst-case
// tail are computed once per decision, so a probe is one multiply-add
// per constraint. The suffix sums are non-decreasing in the level
// (execution times are, by System invariant), so the admissible set at
// a fixed position is always a prefix of the level set and the
// warm-started search of Tables' monotone rows applies unconditionally
// — the iterative tables have no non-monotone fallback case.
//
//qos:hotpath
func (it *IterativeTables) MaxAdmissibleLevel(i, hi, hint int, t Cycles, soft bool) (int, int) {
	if it.unbounded(i) {
		return hi, 1
	}
	j, r := it.at(i)
	tail, wc := it.wcTail(j, r), !soft
	lo, up, chosen, probes := 0, hi, -1, 1
	switch {
	case hint < 0 || hint >= hi:
		if it.check(hi, j, r, tail, t, true, wc) {
			return hi, probes
		}
		up = hi - 1
	case !it.check(hint, j, r, tail, t, true, wc):
		up = hint - 1
	default:
		probes++
		if !it.check(hint+1, j, r, tail, t, true, wc) {
			return hint, probes
		}
		lo, chosen = hint+2, hint+1
	}
	for lo <= up {
		probes++
		mid := int(uint(lo+up) >> 1)
		if it.check(mid, j, r, tail, t, true, wc) {
			chosen = mid
			lo = mid + 1
		} else {
			up = mid - 1
		}
	}
	return chosen, probes
}

// MinFeasibleBudget returns the smallest budget admitting the whole
// cycle at qmin under worst-case times.
func (it *IterativeTables) MinFeasibleBudget() Cycles {
	return it.bodySumWcMin.MulSat(Cycles(it.iters))
}
