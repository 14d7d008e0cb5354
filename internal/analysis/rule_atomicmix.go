package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Rule atomicmix: a variable accessed through the sync/atomic functions
// anywhere in the module must never be read or written plainly elsewhere.
// A mixed access pattern is a data race the type system cannot see: the
// stats layer (internal/flnet/stats.go) publishes counters that upload
// handlers bump while scrapes read them, and one plain `s.count++`
// next to an atomic.AddInt64(&s.count, 1) silently loses updates on
// weakly-ordered hardware.
//
// The rule runs module-wide in two passes:
//
//  1. Inventory — every call of a function-style sync/atomic API
//     (atomic.AddInt64(&x.f, 1), atomic.LoadUint32(&v), CompareAndSwap)
//     records the defs behind its &-arguments as atomic. Typed atomics
//     (atomic.Int64 and friends) are excluded by construction: their
//     only access path is method calls, so mixing is impossible — which
//     is why stats.go uses them. This rule polices the function-style
//     escape hatch.
//  2. Audit — in the linted packages, any other appearance of an
//     inventoried def is a finding: a plain read, a plain write, or the
//     address escaping outside a sanctioned atomic call.
//
// A second check covers copies: a value whose type (transitively)
// contains typed-atomic state — sync/atomic.Int64, .Bool, .Value, … —
// must not be passed, assigned, or received by value; the copy's counter
// is disconnected and the race detector only catches it when both halves
// happen to run.

// checkAtomicMix runs the module-wide mixed-access audit.
func checkAtomicMix(mp *modulePass, pattern []*pkg) map[*pkg][]Diagnostic {
	// Pass 1: inventory atomic defs and the sanctioned access sites.
	atomicAt := make(map[*types.Var]token.Position) // first atomic site per def
	sanctioned := make(map[ast.Node]bool)           // operand exprs inside atomic calls
	for _, p := range mp.all {
		info := p.Info
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicFuncCall(info, call) {
					return true
				}
				for _, arg := range call.Args {
					ux, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || ux.Op != token.AND {
						continue
					}
					op := ast.Unparen(ux.X)
					sanctioned[op] = true
					v := chanVarOf(info, op)
					if v == nil {
						continue
					}
					if _, seen := atomicAt[v]; !seen {
						atomicAt[v] = mp.l.fset.Position(call.Pos())
					}
				}
				return true
			})
		}
	}

	// Pass 2: every other appearance of an inventoried def, plus by-value
	// copies of atomic-bearing structs, in the linted packages. The copy
	// audit runs even when the function-style inventory is empty.
	out := make(map[*pkg][]Diagnostic)
	for _, p := range pattern {
		info := p.Info
		var diags []Diagnostic
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident, *ast.SelectorExpr:
					if sanctioned[n] {
						return false // the atomic access itself
					}
					e := n.(ast.Expr)
					v := useVarOf(info, e)
					if v == nil {
						return true
					}
					// An ident inside a sanctioned selector (the x of a
					// sanctioned x.f) resolves to a different def, so no
					// special casing is needed here.
					if at, ok := atomicAt[v]; ok {
						diags = append(diags, diag(mp.l.fset, RuleAtomicMix, n,
							"plain access to %s, which is accessed via sync/atomic at %s:%d: every read and write must go through sync/atomic", types.ExprString(e), at.Filename, at.Line))
						return false
					}
				case *ast.CallExpr:
					for _, arg := range n.Args {
						if t := info.TypeOf(arg); t != nil && isAtomicBearer(t, 0) && isValueRef(arg) {
							diags = append(diags, diag(mp.l.fset, RuleAtomicMix, arg,
								"%s (type %s) contains sync/atomic state and is copied by value into this call; copies disconnect the counters — pass a pointer", types.ExprString(arg), t.String()))
						}
					}
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						if t := info.TypeOf(rhs); t != nil && isAtomicBearer(t, 0) && isValueRef(rhs) {
							diags = append(diags, diag(mp.l.fset, RuleAtomicMix, rhs,
								"%s (type %s) contains sync/atomic state and is copied by value in this assignment; copies disconnect the counters — use a pointer", types.ExprString(rhs), t.String()))
						}
					}
				case *ast.FuncDecl:
					if n.Type.Params == nil {
						return true
					}
					for _, fld := range n.Type.Params.List {
						if t := info.TypeOf(fld.Type); t != nil && isAtomicBearer(t, 0) {
							diags = append(diags, diag(mp.l.fset, RuleAtomicMix, fld.Type,
								"parameter of type %s contains sync/atomic state and is passed by value; copies disconnect the counters — take a pointer", t.String()))
						}
					}
				}
				return true
			})
		}
		if len(diags) > 0 {
			out[p] = append(out[p], diags...)
		}
	}
	return out
}

// useVarOf resolves an expression to the variable def it *uses*: like
// chanVarOf, but a bare identifier must be a use — a declaration site
// (the field name in a struct type, a var spec) is not an access.
func useVarOf(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
		return nil
	case *ast.SelectorExpr:
		return chanVarOf(info, x)
	}
	return nil
}

// isAtomicFuncCall matches function-style sync/atomic calls (no
// receiver); typed-atomic method calls are excluded.
func isAtomicFuncCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isValueRef reports whether the expression is a reference to an existing
// value (ident or selector) rather than a fresh construction or an
// address-of.
func isValueRef(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return true
	}
	return false
}

// isAtomicBearer reports whether the (value) type transitively contains a
// typed atomic from sync/atomic. Pointers are fine — only copying the
// value tears state.
func isAtomicBearer(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync/atomic":
				return true
			case "sync":
				// sync.WaitGroup/Mutex copies are wgproto's (and go
				// vet's copylocks) territory, not a torn counter here.
				return false
			}
		}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isAtomicBearer(st.Field(i).Type(), depth+1) {
			return true
		}
	}
	return false
}
