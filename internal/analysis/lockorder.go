package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkLockOrder generalizes mixerlock's intra-package self-deadlock
// walk into a module-wide lock-acquisition-order discipline. Mutex
// identity is the declared variable (a struct field like Budget.mu, or
// a package-level var), so two instances of the same field are one
// node; edges A→B record "B was acquired while A was held", whether the
// acquisition is textual or hidden behind a (transitively resolved)
// static call. Two findings come out of the graph:
//
//   - cycles: an edge A→B is in a cycle when B reaches A (somewhere
//     else in the module B→…→A), the ABBA deadlock — two goroutines
//     taking the locks in opposite orders block each other forever.
//     A self-edge (two instances of the same mutex class nested, like
//     transfer(a, b) locking a.mu then b.mu) is the same bug with the
//     roles played by instances.
//   - RLock→Lock upgrades: write-acquiring a mutex whose read lock the
//     path already holds, directly or through a helper. The Lock waits
//     for all readers — including the caller — so it never returns.
//
// The check is a hook set over walkHeld and the program's module-wide
// acquisition fact; locks whose receiver resolves to no variable are
// ignored. Edges are kept in discovery order, the first discovery
// naming each.
//
// Not suppressible: a lock cycle has no safe justification.
func checkLockOrder(prog *program) []finding {
	type lockEdge struct {
		from, to         *types.Var
		fromPath, toPath string
		pos              token.Position
	}
	var edges []lockEdge
	seen := make(map[[2]*types.Var]bool)
	next := make(map[*types.Var][]*types.Var)
	addEdge := func(from, to heldLock, pos token.Position) {
		if key := [2]*types.Var{from.v, to.v}; !seen[key] {
			seen[key] = true
			edges = append(edges, lockEdge{from.v, to.v, from.path, to.path, pos})
			next[from.v] = append(next[from.v], to.v)
		}
	}

	var ds []finding
	report := func(pos token.Position, format string, args ...any) {
		ds = append(ds, finding{d: Diagnostic{Pos: pos, Check: CheckLockOrder, Message: fmt.Sprintf(format, args...)}})
	}
	for _, fn := range prog.funcs {
		name := fn.obj.Name()
		walkHeld(fn.p, fn.decl.Body, heldHooks{
			acquire: func(call *ast.CallExpr, h heldLock, held []heldLock) {
				if h.v == nil {
					return
				}
				pos := nodeLine(fn.p.Fset, call)
				for _, o := range held {
					switch {
					case o.v == nil:
					case o.v == h.v && o.path == h.path:
						// A same-kind re-acquire is mixerlock's double-lock.
						if h.write && !o.write {
							report(pos, "%s upgrades %s from RLock to Lock; the Lock waits for all readers — including this one — and never returns",
								name, h.path)
						}
					default:
						addEdge(o, h, pos)
					}
				}
			},
			call: func(call *ast.CallExpr, held []heldLock) {
				c := prog.byObj[calleeOf(fn.p, call)]
				if c == nil || len(c.acquires) == 0 {
					return
				}
				pos := nodeLine(fn.p.Fset, call)
				for _, o := range held {
					if o.v == nil {
						continue
					}
					for v, bits := range c.acquires {
						if v != o.v {
							addEdge(o, heldLock{v: v, path: prog.pathOf[v]}, pos)
						} else if !o.write && bits&heldWrite != 0 {
							report(pos, "%s calls %s while read-holding %s; %s write-locks the same mutex — RLock→Lock upgrade deadlock",
								name, c.obj.Name(), o.path, c.obj.Name())
						}
					}
				}
			},
		})
	}

	for _, e := range edges {
		switch {
		case e.from == e.to:
			report(e.pos, "two instances of one mutex nest (%s acquired while %s is held); concurrent callers locking the instances in the opposite order deadlock",
				e.toPath, e.fromPath)
		case reaches(next, e.to, e.from):
			report(e.pos, "lock order cycle: %s acquired while %s is held, but another path acquires them in the reverse order — ABBA deadlock",
				e.toPath, e.fromPath)
		}
	}
	return ds
}

// reaches reports whether to is reachable from from along next.
func reaches(next map[*types.Var][]*types.Var, from, to *types.Var) bool {
	seen := map[*types.Var]bool{from: true}
	for stack := []*types.Var{from}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range next[v] {
			if w == to {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}
