package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// arrowOp is the channel-receive operator.
const arrowOp = token.ARROW

// Rule goleak: every goroutine spawned in the concurrency packages
// (internal/flnet, internal/fedcore, internal/faults, internal/tensor and
// the cmd binaries) must have a provable exit path. One worker stuck on
// a channel op whose counterparty has exited is an invisible leak that
// only shows up as a fleet slowly running out of memory.
//
// The rule is module-wide: goroutine bodies are the function literals and
// named functions launched by go statements (spawn sites recorded on the
// call graph), plus every function classified goroutine-only — reachable
// exclusively from spawned code (callGraph.goroutineOnly), like a
// worker's per-item helper that only its pool goroutine calls.
//
// Per body, four checks, each anchored in what is statically provable:
//
//  1. trap region — a CFG region reachable from the entry from which the
//     exit block is unreachable (for {} with no break/return). This is a
//     proof of non-termination, so when one is found the remaining checks
//     are skipped for the body: the trap is the root cause.
//  2. blocking select — a select with no default and no case that
//     receives from a channel def that is closed somewhere in the module
//     (a close releases all receivers: the quit-channel shape), from
//     ctx.Done(), or from a timer. Such a select cannot be released at
//     shutdown.
//  3. bare receive — a receive outside any select from a def that is
//     never closed in the module: if the sender vanishes, the goroutine
//     blocks forever with no alternative arm.
//  4. channel range — a range over a channel def that is never closed in
//     the module: the loop can never terminate.
//
// Channel identity is the *types.Var def (dataflow.go chanVarOf): a field
// of a message received from another channel deliberately does NOT unify
// with the channel the sender closed — whether that sender is still alive
// is exactly the unprovable part, and such receives need either a select
// arm on a real quit channel or an audited //fhdnn:allow.
//
// Nested function literals inside an analyzed body are skipped: they run
// at some other time (or on another goroutine, where they are analyzed as
// their own spawn site). Bare sends are chandisc territory and are not
// flagged here.

var concurrencyPkgs = []string{
	"internal/flnet", "internal/fedcore", "internal/faults", "internal/tensor",
}

// concurrencyScoped reports whether the concurrency rules audit this
// package: the four long-lived-goroutine packages plus every binary.
func concurrencyScoped(p *pkg) bool {
	return relIn(p, concurrencyPkgs...) || strings.HasPrefix(p.Rel, "cmd/")
}

// leakUnit is one goroutine body to audit.
type leakUnit struct {
	pkg    *pkg
	name   string         // display name for messages
	body   *ast.BlockStmt // the code that runs on the goroutine
	anchor ast.Node       // fallback diagnostic position
}

// checkGoLeak runs the module-wide goroutine-exit audit. Findings are
// grouped per package so Run can thread them through suppression.
func checkGoLeak(mp *modulePass, pattern []*pkg) map[*pkg][]Diagnostic {
	inPattern := make(map[*pkg]bool, len(pattern))
	for _, p := range pattern {
		inPattern[p] = true
	}
	audit := func(p *pkg) bool { return inPattern[p] && concurrencyScoped(p) }

	var units []leakUnit
	seenFn := make(map[*types.Func]bool)
	seenLit := make(map[*ast.FuncLit]bool)
	g := mp.graph
	for _, fn := range g.order {
		node := g.nodes[fn]
		for _, sp := range node.spawns {
			switch {
			case sp.lit != nil:
				if audit(node.pkg) && !seenLit[sp.lit] {
					seenLit[sp.lit] = true
					units = append(units, leakUnit{
						pkg:  node.pkg,
						name: "goroutine launched by " + funcDisplayName(fn),
						body: sp.lit.Body, anchor: sp.stmt,
					})
				}
			case sp.target != nil:
				tn, ok := g.nodes[sp.target]
				if ok && audit(tn.pkg) && !seenFn[sp.target] {
					seenFn[sp.target] = true
					units = append(units, leakUnit{
						pkg:  tn.pkg,
						name: funcDisplayName(sp.target),
						body: tn.decl.Body, anchor: tn.decl,
					})
				}
			}
		}
	}
	// Goroutine-only helpers: bodies that execute exclusively on spawned
	// goroutines even though they are not themselves spawn targets.
	for _, fn := range g.order {
		if !mp.goOnly[fn] || seenFn[fn] {
			continue
		}
		node := g.nodes[fn]
		if !audit(node.pkg) {
			continue
		}
		seenFn[fn] = true
		units = append(units, leakUnit{
			pkg:  node.pkg,
			name: funcDisplayName(fn),
			body: node.decl.Body, anchor: node.decl,
		})
	}

	out := make(map[*pkg][]Diagnostic)
	for _, u := range units {
		out[u.pkg] = append(out[u.pkg], leakCheckBody(mp, u)...)
	}
	return out
}

// leakCheckBody audits one goroutine body.
func leakCheckBody(mp *modulePass, u leakUnit) []Diagnostic {
	fset := mp.l.fset
	info := u.pkg.Info
	inv := mp.chans

	// Check 1: trap regions — blocks reachable from the entry with no path
	// to the exit.
	g := buildCFG(u.body)
	er := g.exitReachable()
	reach := make([]bool, len(g.blocks))
	reach[g.entry.idx] = true
	stack := []*block{g.entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.succs {
			if !reach[s.idx] {
				reach[s.idx] = true
				stack = append(stack, s)
			}
		}
	}
	var trapAt ast.Node
	trapped := false
	for _, b := range g.blocks {
		if !reach[b.idx] || er[b.idx] {
			continue
		}
		trapped = true
		for _, a := range b.atoms {
			if trapAt == nil || a.Pos() < trapAt.Pos() {
				trapAt = a
			}
		}
	}
	if trapped {
		if trapAt == nil {
			trapAt = u.anchor
		}
		return []Diagnostic{diag(fset, RuleGoLeak, trapAt,
			"%s can never return once control reaches here: no CFG path leads back to the function exit, so the goroutine runs (or blocks) forever", u.name)}
	}

	var diags []Diagnostic

	// Receives that are select communication clauses are judged by the
	// select check, not the bare-receive check.
	commRecv := make(map[ast.Node]bool)
	walkSkipLits(u.body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			cc := cl.(*ast.CommClause)
			if rx := commRecvExpr(cc.Comm); rx != nil {
				commRecv[rx] = true
			}
		}
		return true
	})

	walkSkipLits(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			// Check 2: some arm must be releasable at shutdown.
			ok := false
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				if cc.Comm == nil { // default: never blocks
					ok = true
					break
				}
				if rx := commRecvExpr(cc.Comm); rx != nil && releasableRecv(info, inv, rx) {
					ok = true
					break
				}
			}
			if !ok {
				diags = append(diags, diag(fset, RuleGoLeak, n,
					"select in %s can block forever: no default and no case receives from a channel that is ever closed, a timer, or ctx.Done(), so shutdown cannot release this goroutine", u.name))
			}
		case *ast.UnaryExpr:
			// Check 3: bare blocking receive.
			if n.Op != arrowOp || commRecv[n] {
				return true
			}
			if releasableRecv(info, inv, n) {
				return true
			}
			diags = append(diags, diag(fset, RuleGoLeak, n,
				"blocking receive from %s in %s: the channel is never closed in the module, so a vanished counterparty leaks this goroutine", types.ExprString(n.X), u.name))
		case *ast.RangeStmt:
			// Check 4: range over a channel needs a module close.
			t := info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return true
			}
			if v := chanVarOf(info, n.X); inv.isClosed(v) {
				return true
			}
			diags = append(diags, diag(fset, RuleGoLeak, n,
				"range over %s in %s never terminates: no close of this channel def exists anywhere in the module", types.ExprString(n.X), u.name))
		}
		return true
	})
	return diags
}

// walkSkipLits walks a subtree without descending into function literals.
func walkSkipLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m == nil {
			return true
		}
		return fn(m)
	})
}

// commRecvExpr extracts the receive expression of a select comm statement
// (`<-ch`, `v := <-ch`, `v, ok = <-ch`), nil for sends.
func commRecvExpr(comm ast.Stmt) *ast.UnaryExpr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if ux, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ux.Op == arrowOp {
		return ux
	}
	return nil
}

// releasableRecv reports whether a receive can be released without its
// counterparty cooperating per-message: the operand def is closed
// somewhere in the module (close broadcasts to all receivers), or the
// operand is ctx.Done(), time.After/Tick, or a Timer/Ticker channel.
func releasableRecv(info *types.Info, inv *chanInventory, rx *ast.UnaryExpr) bool {
	op := ast.Unparen(rx.X)
	if call, ok := op.(*ast.CallExpr); ok {
		if fn := calleeOf(info, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "context":
				return fn.Name() == "Done"
			case "time":
				return fn.Name() == "After" || fn.Name() == "Tick"
			}
		}
		return false
	}
	if se, ok := op.(*ast.SelectorExpr); ok && se.Sel.Name == "C" {
		if t := info.TypeOf(se.X); t != nil && isTimeTimerOrTicker(t) {
			return true
		}
	}
	return inv.isClosed(chanVarOf(info, op))
}

// isTimeTimerOrTicker matches *time.Timer / *time.Ticker (and the bare
// named types).
func isTimeTimerOrTicker(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return false
	}
	return obj.Name() == "Timer" || obj.Name() == "Ticker"
}
