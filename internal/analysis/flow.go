package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// This file holds the engine the module-wide checks query: one
// inventory of the module's functions, one static call graph over it,
// one fixpoint that computes each function's lock and blocking facts,
// and one held-lock walker. Analyze builds the program once.

// program is the package set under analysis, as the module-wide checks
// see it.
type program struct {
	mod   map[*types.Package]bool
	funcs []*function // declared functions with bodies, in (package, file, source) order
	byObj map[*types.Func]*function
	// pathOf names each mutex variable by the first path it is
	// acquired through.
	pathOf map[*types.Var]string
}

// function is one declared function, its call edges and its facts.
type function struct {
	p     *Package
	obj   *types.Func
	decl  *ast.FuncDecl
	calls []edge // to declared module functions, in source order

	// acquires maps each mutex the function may lock, directly or
	// through any call, to its heldWrite/heldRead bits (lockorder).
	acquires map[*types.Var]uint8
	// pkgAcquires reports that the function may lock some mutex,
	// directly or through same-package calls only (mixerlock).
	pkgAcquires bool
	// blocks is the one-line reason the function may block ("sends on
	// a channel", "calls AdmitWait, which may block"); "" means it
	// provably cannot under the static call graph.
	blocks string
}

// edge is one static call in a function's body. A spawned edge sits
// under a go statement or in a select's comm clause: whatever the
// callee blocks on is not charged to the caller. The goroutine runs on
// its own (goroutinelife owns its body), and a select carries its own
// blocking report.
type edge struct {
	callee  *function
	pos     token.Pos
	spawned bool
}

// buildProgram indexes the module's functions, records every call edge
// and direct fact in one pass per body, and closes the facts over the
// call graph.
func buildProgram(pkgs []*Package) *program {
	prog := &program{
		mod:    make(map[*types.Package]bool, len(pkgs)),
		byObj:  make(map[*types.Func]*function),
		pathOf: make(map[*types.Var]string),
	}
	for _, p := range pkgs {
		prog.mod[p.Pkg] = true
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						fn := &function{p: p, obj: obj, decl: fd}
						prog.funcs = append(prog.funcs, fn)
						prog.byObj[obj] = fn
					}
				}
			}
		}
	}
	for _, fn := range prog.funcs {
		prog.scan(fn)
	}
	prog.fixpoint()
	return prog
}

// scan records fn's call edges and direct facts. Acquisitions count
// anywhere in the body, function literals and spawned code included (a
// callback that locks is attributed to its definer, the conservative
// reading); the direct blocking reason is the first unspawned blocking
// construct.
func (prog *program) scan(fn *function) {
	p := fn.p
	inspectSpawn(fn.decl.Body, func(n ast.Node, spawned bool) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, path := lockCallKind(p, call); op == opLock || op == opRLock {
				fn.pkgAcquires = true
				if v := mutexVar(p, call); v != nil {
					fn.acquire(v, modeBit(op == opLock))
					if _, ok := prog.pathOf[v]; !ok {
						prog.pathOf[v] = path
					}
				}
			}
			if callee := prog.byObj[calleeOf(p, call)]; callee != nil {
				fn.calls = append(fn.calls, edge{callee, call.Pos(), spawned})
			}
		}
		if fn.blocks == "" && !spawned {
			fn.blocks = blockReason(p, n)
		}
		return true
	})
}

// acquire adds bits for v and reports whether that changed anything.
func (fn *function) acquire(v *types.Var, bits uint8) bool {
	if fn.acquires[v]&bits == bits {
		return false
	}
	if fn.acquires == nil {
		fn.acquires = make(map[*types.Var]uint8)
	}
	fn.acquires[v] |= bits
	return true
}

// fixpoint closes the three facts over the call graph: acquisitions
// along every edge, same-package acquisitions along same-package edges,
// and blocking along unspawned edges, where a function takes the
// reason of the first blocking callee it is seen to call.
func (prog *program) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.funcs {
			for _, e := range fn.calls {
				c := e.callee
				for v, bits := range c.acquires {
					changed = fn.acquire(v, bits) || changed
				}
				if c.pkgAcquires && !fn.pkgAcquires && c.p == fn.p {
					fn.pkgAcquires, changed = true, true
				}
				if c.blocks != "" && fn.blocks == "" && !e.spawned {
					fn.blocks, changed = fmt.Sprintf("calls %s, which may block", c.obj.Name()), true
				}
			}
		}
	}
}

// inspectSpawn walks n like ast.Inspect and tells visit whether each
// node is spawned: under a go statement or in a select's comm clause.
func inspectSpawn(n ast.Node, visit func(n ast.Node, spawned bool) bool) {
	var walk func(n ast.Node, spawned bool)
	walk = func(n ast.Node, spawned bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || !visit(m, spawned) {
				return false
			}
			if spawned {
				return true
			}
			switch x := m.(type) {
			case *ast.GoStmt:
				walk(x.Call, true)
				return false
			case *ast.CommClause:
				if x.Comm != nil {
					walk(x.Comm, true)
					for _, s := range x.Body {
						walk(s, false)
					}
					return false
				}
			}
			return true
		})
	}
	walk(n, false)
}

// calleeOf resolves the function or method a call names statically: an
// identifier or a selector's name. It is nil for builtins, conversions
// and calls of function values; an interface method call resolves to
// the interface's method, which has no body. Dynamic dispatch is the
// known hole every call-graph query shares.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// callsIn reports whether the subtree n calls a function match
// accepts. Calls under nested go statements do not count: they belong
// to their own spawn site.
func callsIn(p *Package, n ast.Node, match func(*types.Func) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if fn := calleeOf(p, x); fn != nil && match(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isMethod reports whether fn is one of the named methods of the type
// pkg.recv.
func isMethod(fn *types.Func, pkg, recv string, names ...string) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == pkg && recvTypeName(fn) == recv && slices.Contains(names, fn.Name())
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), pointer receivers unwrapped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// blockReason says why n may park the goroutine, or "" when it cannot:
// a channel send or receive, a range over a channel, a select with no
// default case, or a blocking standard-library call.
func blockReason(p *Package, n ast.Node) string {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "sends on a channel"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "receives from a channel"
		}
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			return "blocks in a select with no default case"
		}
	case *ast.RangeStmt:
		if tv, ok := p.Info.Types[x.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "receives from a channel (range)"
			}
		}
	case *ast.CallExpr:
		return stdlibBlockingCall(p, x)
	}
	return ""
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// stdlibBlockingCall classifies the blocking standard-library calls:
// time.Sleep, sync.WaitGroup.Wait, sync.Cond.Wait, and anything in net
// or net/* (dials, reads, serves — all of them park the goroutine).
// Mutex Lock/Unlock are deliberately excluded: lock acquisition order
// is mixerlock's and lockorder's jurisdiction, and double-reporting it
// here would drown the real waits.
func stdlibBlockingCall(p *Package, call *ast.CallExpr) string {
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && fn.Name() == "Sleep":
		return "calls time.Sleep"
	case isMethod(fn, "sync", "WaitGroup", "Wait"):
		return "calls sync.WaitGroup.Wait"
	case isMethod(fn, "sync", "Cond", "Wait"):
		return "calls sync.Cond.Wait"
	case path == "net" || strings.HasPrefix(path, "net/"):
		return fmt.Sprintf("performs network I/O (%s.%s)", path, fn.Name())
	}
	return ""
}

// mayBlockCall describes a call into a module function that may block,
// or returns "".
func (prog *program) mayBlockCall(p *Package, call *ast.CallExpr) string {
	if c := prog.byObj[calleeOf(p, call)]; c != nil && c.blocks != "" {
		return fmt.Sprintf("calls %s, which may block (%s)", c.obj.Name(), c.blocks)
	}
	return ""
}

// lockOp is the exact lock operation of a call: write and read
// acquires are distinct kinds, as are their releases.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// Held-mode bits per mutex.
const (
	heldWrite uint8 = 1 << iota
	heldRead
)

func modeBit(write bool) uint8 {
	if write {
		return heldWrite
	}
	return heldRead
}

// lockCallKind classifies call as one of Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex value, and returns the textual path of the
// mutex (e.g. "b.mu") for matching within one function.
func lockCallKind(p *Package, call *ast.CallExpr) (lockOp, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return opNone, ""
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return opNone, ""
	}
	return op, exprPath(sel.X)
}

func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// mutexVar resolves the variable a Lock/RLock/Unlock/RUnlock call's
// mutex is: the struct field or the (package-level or local) var. nil
// when the receiver is something exotic (a map element, a call result).
func mutexVar(p *Package, call *ast.CallExpr) *types.Var {
	return referencedVar(p, call.Fun.(*ast.SelectorExpr).X)
}

// exprPath renders a selector chain like g.b.mu; unknown shapes get a
// stable fallback so they still participate in held-state tracking.
func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprPath(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	}
	return "<expr>"
}

// heldLock is one entry of a walk's held set: the mutex variable (nil
// when the receiver does not resolve to one), the path it was acquired
// through, and the mode.
type heldLock struct {
	v     *types.Var
	path  string
	write bool
}

// heldHooks are one check's callbacks into walkHeld; any may be nil.
type heldHooks struct {
	// acquire sees a Lock or RLock call before h joins held.
	acquire func(call *ast.CallExpr, h heldLock, held []heldLock)
	// call sees every other call made while held is non-empty.
	call func(call *ast.CallExpr, held []heldLock)
	// block sees a channel send or receive, a range over a channel or a
	// select with no default case met while held is non-empty.
	block func(n ast.Node, what string, held []heldLock)
}

// walkHeld walks body in source order, threading the set of held locks
// through statements. A branch body starts from the state before it and
// its changes do not leak past it: the common Lock-then-branch-Unlock-
// return pattern keeps the outer state held, the conservative reading.
// A deferred release holds to function end, and a deferred call runs
// under the current set. A go statement, function literals (they run
// under their eventual caller's locks) and the communications of a
// select's comm clauses are not walked.
//
// No element of held is ever overwritten: an acquire appends past the
// length, and a release's three-index slice sends its copy to a fresh
// array. So a branch walks its parent's slice and drops the result.
func walkHeld(p *Package, body *ast.BlockStmt, hooks heldHooks) {
	w := &heldWalker{p, hooks}
	w.stmts(body.List, nil)
}

type heldWalker struct {
	p *Package
	heldHooks
}

func (w *heldWalker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *heldWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch st := s.(type) {
	case *ast.ExprStmt:
		return w.expr(st.X, held)
	case *ast.IncDecStmt:
		return w.expr(st.X, held)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = w.expr(e, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.blocked(st, held)
		return w.expr(st.Value, w.expr(st.Chan, held))
	case *ast.DeferStmt:
		if op, _ := lockCallKind(w.p, st.Call); op == opNone {
			return w.expr(st.Call, held)
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			held = w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			held = w.expr(e, held)
		}
	case *ast.BlockStmt:
		return w.stmts(st.List, held)
	case *ast.IfStmt:
		held = w.expr(st.Cond, w.stmt(st.Init, held))
		w.stmts(st.Body.List, held)
		w.stmt(st.Else, held)
	case *ast.ForStmt:
		held = w.expr(st.Cond, w.stmt(st.Init, held))
		w.stmts(st.Body.List, held)
	case *ast.RangeStmt:
		w.blocked(st, held)
		held = w.expr(st.X, held)
		w.stmts(st.Body.List, held)
	case *ast.SwitchStmt:
		held = w.expr(st.Tag, w.stmt(st.Init, held))
		w.clauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(st.Body, held)
	case *ast.SelectStmt:
		w.blocked(st, held)
		w.clauses(st.Body, held)
	}
	return held
}

// clauses walks each case or comm clause's body as a branch.
func (w *heldWalker) clauses(body *ast.BlockStmt, held []heldLock) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.stmts(cc.Body, held)
		case *ast.CommClause:
			w.stmts(cc.Body, held)
		}
	}
}

// blocked hands n to the block hook when it may park under held.
func (w *heldWalker) blocked(n ast.Node, held []heldLock) {
	if len(held) > 0 && w.block != nil {
		if what := blockReason(w.p, n); what != "" {
			w.block(n, what, held)
		}
	}
}

// expr applies the lock transitions and hooks inside one expression and
// returns the updated held set.
func (w *heldWalker) expr(e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			w.blocked(x, held)
		case *ast.CallExpr:
			switch op, path := lockCallKind(w.p, x); op {
			case opLock, opRLock:
				h := heldLock{mutexVar(w.p, x), path, op == opLock}
				if w.acquire != nil {
					w.acquire(x, h, held)
				}
				held = append(held, h)
				return false
			case opUnlock, opRUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].path == path && held[i].write == (op == opUnlock) {
						held = append(held[:i:i], held[i+1:]...)
						break
					}
				}
				return false
			}
			if len(held) > 0 && w.call != nil {
				w.call(x, held)
			}
		}
		return true
	})
	return held
}
