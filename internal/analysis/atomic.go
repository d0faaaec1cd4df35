package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkAtomicSafety enforces the all-or-nothing contract of sync/atomic
// across the whole module: a variable that is ever accessed through the
// atomic package — or that is declared with an atomic.* value type —
// must never be read or written plainly anywhere. One plain load racing
// one atomic store is still a data race; worse, it is the kind the race
// detector only catches when the interleaving happens to occur. The
// mixed access is reported at the plain-access site, where the fix goes.
//
// Two populations are tracked:
//
//   - legacy variables: any var (field or local/package-level) whose
//     address is passed as the first argument to a sync/atomic function
//     (atomic.AddInt64(&v, 1), atomic.StoreUint32(&f, 0), ...) anywhere
//     in the module. Every other appearance of that var must be the
//     same &v-into-atomic shape.
//   - typed variables: vars of an atomic.* value type (atomic.Int64,
//     atomic.Pointer[T], atomic.Value, ...). The type already forces
//     atomic loads and stores through its methods; what remains illegal
//     is copying the value (assignment, by-value argument, range
//     copy...), which forks the counter and silently splits the state.
//     Method calls and address-taking are the only sanctioned uses.
//
// Not suppressible: there is no bounded-race argument to make — either
// the access is atomic or the guarantee is gone.
func checkAtomicSafety(pkgs []*Package) []finding {
	legacy := make(map[*types.Var]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicPkgCall(p, call) || len(call.Args) == 0 {
					return true
				}
				if un, ok := call.Args[0].(*ast.UnaryExpr); ok && un.Op == token.AND {
					if v := referencedVar(p, un.X); v != nil {
						legacy[v] = true
					}
				}
				return true
			})
		}
	}

	var ds []finding
	report := func(p *Package, n ast.Expr, msg string) {
		ds = append(ds, finding{d: Diagnostic{Pos: nodeLine(p.Fset, n), Check: CheckAtomicSafety, Message: msg}})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
				expr, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				v := referencedVar(p, expr)
				if v == nil {
					return true
				}
				// Only judge the outermost expression naming the var: for
				// s.stats.cycles the selector is judged once, not again for
				// its embedded idents.
				if parentNamesSameVar(p, expr, stack) {
					return true
				}
				if legacy[v] && !sanctionedLegacyUse(p, stack) {
					report(p, expr, fmt.Sprintf(
						"plain access to %s, which is accessed via sync/atomic elsewhere; every access must go through sync/atomic",
						exprPath(expr)))
					return true
				}
				if isAtomicValueType(v.Type()) && !sanctionedTypedUse(p, expr, stack) {
					report(p, expr, fmt.Sprintf(
						"%s has atomic type %s and must not be copied or moved; call its methods (or pass its address)",
						exprPath(expr), types.TypeString(v.Type(), shortQualifier)))
				}
				return true
			})
		}
	}
	return ds
}

// shortQualifier renders types with bare package names (atomic.Int64).
func shortQualifier(p *types.Package) string { return p.Name() }

// isAtomicPkgCall reports whether call invokes a function of package
// sync/atomic (the legacy free functions, not the value-type methods).
func isAtomicPkgCall(p *Package, call *ast.CallExpr) bool {
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Free functions only: methods of atomic.Int64 & co have receivers.
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isAtomicValueType reports whether t is one of sync/atomic's value
// types (Bool, Int32, Int64, Uint32, Uint64, Uintptr, Pointer[T],
// Value).
func isAtomicValueType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// referencedVar resolves the variable an identifier or field selector
// denotes, unwrapping parens. Returns nil for anything else (calls,
// index expressions, declarations).
func referencedVar(p *Package, e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.Ident:
		v, _ := p.Info.Uses[x].(*types.Var)
		return v
	case *ast.SelectorExpr:
		sel, ok := p.Info.Selections[x]
		if ok && sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		// Qualified package-level var (pkg.V).
		v, _ := p.Info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.ParenExpr:
		return referencedVar(p, x.X)
	}
	return nil
}

// parentNamesSameVar reports whether the immediate parent expression is
// a selector that resolves to the same variable reference — i.e. expr
// is the Sel half or an inner step of a chain the parent already
// covers.
func parentNamesSameVar(p *Package, expr ast.Expr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent, ok := stack[len(stack)-1].(ast.Expr)
	if !ok {
		return false
	}
	switch parent.(type) {
	case *ast.SelectorExpr, *ast.ParenExpr:
		return referencedVar(p, parent) != nil
	}
	return false
}

// effectiveParent returns the nearest non-paren ancestor and the one
// above it.
func effectiveParent(stack []ast.Node) (parent, grand ast.Node) {
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i >= 0 {
		parent = stack[i]
	}
	if i >= 1 {
		grand = stack[i-1]
	}
	return parent, grand
}

// sanctionedLegacyUse reports whether the access sits in the one legal
// shape for a legacy atomic var: &v as an argument of a sync/atomic
// call.
func sanctionedLegacyUse(p *Package, stack []ast.Node) bool {
	parent, grand := effectiveParent(stack)
	un, ok := parent.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	call, ok := grand.(*ast.CallExpr)
	return ok && isAtomicPkgCall(p, call)
}

// sanctionedTypedUse reports whether an atomic.*-typed value is used
// legally: as the receiver of a method call/value (v.Load(), v.Add) or
// with its address taken (&v, passing a pointer keeps one instance).
func sanctionedTypedUse(p *Package, expr ast.Expr, stack []ast.Node) bool {
	parent, _ := effectiveParent(stack)
	switch pn := parent.(type) {
	case *ast.SelectorExpr:
		if pn.X != expr {
			return true // expr is the Sel side; the selection itself was judged
		}
		sel, ok := p.Info.Selections[pn]
		return ok && sel.Kind() == types.MethodVal
	case *ast.UnaryExpr:
		return pn.Op == token.AND
	}
	return false
}
