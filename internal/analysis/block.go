package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkBlockUnderLock is the module-wide no-blocking-under-a-mutex
// check: while any sync.Mutex/RWMutex is held, no potentially-blocking
// operation may run — a channel send or receive, a select without a
// default case, sync.WaitGroup.Wait, time.Sleep, network I/O, a
// Cond.Wait on a condition guarded by a *different* mutex, or a call
// into a function the program's may-block fact covers (AdmitWait and
// friends). A holder parked on any of these stalls every contender for
// the mutex for an unbounded time; under the paper's hard-deadline
// contract that is a missed deadline waiting to happen. Read locks are
// tracked separately from write locks and named in the finding:
// blocking under an RLock stalls writers, under a Lock it stalls
// everyone.
//
// The check is a hook set over walkHeld; the finding names the first
// held lock whose receiver resolves to a variable. Not suppressible:
// there is no safe amount of unbounded waiting inside a critical
// section.
func checkBlockUnderLock(prog *program) []finding {
	condMu := condGuards(prog)
	var ds []finding
	for _, fn := range prog.funcs {
		name := fn.obj.Name()
		report := func(n ast.Node, format string, args ...any) {
			ds = append(ds, finding{d: Diagnostic{Pos: nodeLine(fn.p.Fset, n), Check: CheckBlockUnderLock, Message: fmt.Sprintf(format, args...)}})
		}
		reportHeld := func(n ast.Node, what string, held []heldLock) {
			for _, h := range held {
				if h.v != nil {
					report(n, "%s %s while holding %s (%s-locked); a parked holder stalls every contender for the mutex",
						name, what, h.path, modeName(h))
					return
				}
			}
		}
		walkHeld(fn.p, fn.decl.Body, heldHooks{
			block: reportHeld,
			call: func(call *ast.CallExpr, held []heldLock) {
				what := stdlibBlockingCall(fn.p, call)
				if what != "calls sync.Cond.Wait" {
					if what == "" {
						what = prog.mayBlockCall(fn.p, call)
					}
					if what != "" {
						reportHeld(call, what, held)
					}
					return
				}
				// Cond.Wait atomically releases the cond's own mutex while
				// parked, so waiting under that mutex is the intended
				// pattern. Waiting while a *different* mutex is held keeps
				// that one locked for the whole wait. An unassociated cond
				// stays silent rather than accuse.
				guard := condMu[referencedVar(fn.p, call.Fun.(*ast.SelectorExpr).X)]
				for _, h := range held {
					if guard != nil && h.v != nil && h.v != guard {
						report(call, "%s calls Cond.Wait (guarded by %s) while holding %s (%s-locked); the wait never releases %s",
							name, guard.Name(), h.path, modeName(h), h.path)
						return
					}
				}
			},
		})
	}
	return ds
}

func modeName(h heldLock) string {
	if h.write {
		return "write"
	}
	return "read"
}

// condGuards maps each sync.Cond variable to the mutex variable its L
// was built from: sync.NewCond(&mu) assigned to an identifier or
// field. A cond built through any other shape (composite literal
// field, function return) stays unassociated.
func condGuards(prog *program) map[*types.Var]*types.Var {
	condMu := make(map[*types.Var]*types.Var)
	for _, fn := range prog.funcs {
		p := fn.p
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					continue
				}
				if f := calleeOf(p, call); f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" || f.Name() != "NewCond" {
					continue
				}
				arg := call.Args[0]
				if un, ok := arg.(*ast.UnaryExpr); ok && un.Op == token.AND {
					arg = un.X
				}
				mu, cond := referencedVar(p, arg), referencedVar(p, as.Lhs[i])
				if mu != nil && cond != nil {
					condMu[cond] = mu
				}
			}
			return true
		})
	}
	return condMu
}
