package analysis

import (
	"fmt"
	"go/ast"
)

// checkMixerLock is the intra-package lock-discipline check: no
// function may call — directly or transitively through same-package
// helpers — a function that acquires a sync.Mutex/RWMutex field while
// the caller already holds one. The shared-budget mixer enforces this
// only by comment discipline ("callers hold b.mu"); this makes the
// discipline mechanical. Re-locking a mutex already held in the same
// function is reported too, with read locks (RLock) tracked as a
// distinct acquire kind from write locks: a recursive RLock deadlocks
// as soon as a writer queues between the two, and an RLock taken while
// the write lock is held never returns, so both are reported here.
// The remaining cross-kind hazard — upgrading RLock to Lock on the
// same mutex — is the lockorder check's job.
//
// The check is a hook set over walkHeld with the program's
// same-package acquisition fact. Lock identity is the textual path
// (b.mu), so a lock whose receiver resolves to no variable still
// counts as held. It is conservative about identity — while any mutex
// is held, calling any same-package function that may acquire any
// mutex is reported — which is exact for single-mutex packages like the
// mixer and errs on the loud side elsewhere. Widening the fact to
// module-wide calls would flag helpers such as qosd's teardownLocked,
// which take a different package's locks under the caller's.
func checkMixerLock(prog *program) []finding {
	var ds []finding
	for _, fn := range prog.funcs {
		name := fn.obj.Name()
		report := func(n ast.Node, format string, args ...any) {
			ds = append(ds, finding{d: Diagnostic{Pos: nodeLine(fn.p.Fset, n), Check: CheckMixerLock, Message: fmt.Sprintf(format, args...)}})
		}
		walkHeld(fn.p, fn.decl.Body, heldHooks{
			acquire: func(call *ast.CallExpr, h heldLock, held []heldLock) {
				var mode uint8
				for _, o := range held {
					if o.path == h.path {
						mode |= modeBit(o.write)
					}
				}
				switch {
				case h.write && mode&heldWrite != 0:
					report(call, "%s locks %s, which it already holds", name, h.path)
				case !h.write && mode&heldWrite != 0:
					report(call, "%s read-locks %s while write-holding it; RWMutex is not reentrant", name, h.path)
				case !h.write && mode&heldRead != 0:
					report(call, "%s read-locks %s, which it already read-holds; a writer queued between the two RLocks deadlocks", name, h.path)
				}
			},
			call: func(call *ast.CallExpr, held []heldLock) {
				c := prog.byObj[calleeOf(fn.p, call)]
				if c == nil || c.p != fn.p || !c.pkgAcquires {
					return
				}
				// Name the smallest held path, deterministically; one mutex
				// is the overwhelmingly common case.
				first := held[0].path
				for _, o := range held {
					first = min(first, o.path)
				}
				report(call, "%s calls %s while holding %s; %s acquires a mutex — potential self-deadlock",
					name, c.obj.Name(), first, c.obj.Name())
			},
		})
	}
	return ds
}
