package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkCtxLoop encodes the lost-wakeup bug class fixed by hand twice in
// PR 7 (mixer.AdmitWait, pipeline.RunStreamsCtx): a function that
// accepts a context.Context and then waits in a loop — a blocking
// receive, a select without default, a backoff retry through a
// may-block callee — must consult the context on every iteration, via a
// ctx.Err() call or a <-ctx.Done() select case inside the loop.
// Otherwise a canceled caller is stranded: the wait can persist
// arbitrarily long after the caller has given up, holding whatever
// budget or lease the loop was retrying for.
//
// The "every iteration path" requirement is approximated
// flow-insensitively: the loop's subtree must contain at least one
// consultation. A consultation hidden behind an if that skips it on
// some path still satisfies the check; the reverse error — flagging a
// loop whose first statement is ctx.Err() — does not happen. Goroutines
// spawned inside the loop are excluded from both sides: their waits and
// their consultations belong to their own spawn site (goroutinelife's
// jurisdiction). Not suppressible: a loop that waits without watching
// its context has no safe justification under cancellation.
func checkCtxLoop(prog *program) []finding {
	var ds []finding
	for _, fn := range prog.funcs {
		if !hasContextParam(fn.obj) {
			continue
		}
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
			default:
				return true
			}
			reason := prog.loopBlockReason(fn.p, n)
			if reason == "" || callsIn(fn.p, n, isCtxConsult) {
				return true
			}
			ds = append(ds, finding{d: Diagnostic{
				Pos:   nodeLine(fn.p.Fset, n),
				Check: CheckCtxLoop,
				Message: fmt.Sprintf("%s takes a context but this loop %s without consulting it; a canceled caller is stranded — call ctx.Err() or select on <-ctx.Done() each iteration",
					fn.obj.Name(), reason),
			}})
			return true
		})
	}
	return ds
}

// hasContextParam reports whether fn's signature takes a
// context.Context parameter.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// loopBlockReason returns the first reason the loop's subtree may wait
// ("" if it provably cannot): an unspawned blocking construct, or an
// unspawned call to a function the may-block fact covers.
func (prog *program) loopBlockReason(p *Package, loop ast.Node) string {
	reason := ""
	inspectSpawn(loop, func(n ast.Node, spawned bool) bool {
		if reason == "" && !spawned {
			if reason = blockReason(p, n); reason == "" {
				if call, ok := n.(*ast.CallExpr); ok {
					reason = prog.mayBlockCall(p, call)
				}
			}
		}
		return reason == ""
	})
	return reason
}

// isCtxConsult matches the two calls a cancellation check can make:
// context.Context's Err and Done.
func isCtxConsult(fn *types.Func) bool {
	return isMethod(fn, "context", "Context", "Err", "Done")
}
