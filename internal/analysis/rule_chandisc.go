package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule chandisc: channel ownership and discipline in the concurrency
// packages. Three checks:
//
//  1. close-by-owner — close(ch) is legal only for the channel's owner,
//     resolved through the local definition chain: the function that
//     created it with make, a method of the struct the channel chain
//     roots at (close(sh.kill) where sh derives from the receiver), or a
//     package-level channel. Closing a channel parameter, or a channel
//     that itself arrived through another channel (close(req.done) after
//     req := <-queue), transfers close authority across an unmodeled
//     boundary: two parties can each believe they own the close, and a
//     double close panics. Fields reached from a *struct parameter are
//     accepted — handing a struct pointer to a worker hands it the
//     lifecycle — but a def chain that passes through a channel receive
//     is a finding.
//  2. double-close / send-after-close — a forward may-closed CFG fixpoint
//     per function body. close(v) when v may already be closed on some
//     path is a panic; so is a send to a may-closed def. Assigning a
//     fresh value to the variable (ch = make(...)) kills the closed
//     state; deferred statements are skipped (they run at exit, after
//     every send the fixpoint sees).
//  3. bounded queue — a queue must be created with an explicit capacity:
//     make(chan T) assigned to a name containing "queue" or "jobs" (the
//     module's queue naming convention, cf. the fhdnn-loadgen jobs
//     channel) is a finding. An unbuffered queue turns every producer
//     into a synchronous rendezvous and a backpressure contract silently
//     degrades into blocking chains.
//
// Channel identity is the *types.Var def, as in goleak. All checks are
// intraprocedural; ownership that crosses function boundaries by design
// needs an audited //fhdnn:allow with the ownership argument as reason.

func checkChanDisc(l *loader, p *pkg) []Diagnostic {
	if !concurrencyScoped(p) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, chanOwnership(l, p, fd)...)
			diags = append(diags, chanCloseFlow(l, p, fd.Body)...)
		}
	}
	// Function literal bodies get their own close-flow fixpoint (their
	// close sites are owned by the enclosing decl for check 1, which
	// already walked them via the full-decl inspect).
	inspectAll(p, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			diags = append(diags, chanCloseFlow(l, p, fl.Body)...)
		}
		return true
	})
	diags = append(diags, chanBoundedQueues(l, p)...)
	return diags
}

// --- check 1: close-by-owner --------------------------------------------

// chanOwnership audits every close() in the declaration (including nested
// literals: a close inside killOnce.Do(func(){...}) is still performed by
// this function).
func chanOwnership(l *loader, p *pkg, fd *ast.FuncDecl) []Diagnostic {
	info := p.Info

	// Parameter and receiver objects of the declaration.
	params := make(map[types.Object]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	recv := make(map[types.Object]bool)
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					recv[obj] = true
				}
			}
		}
	}
	collect(fd.Type.Params)

	// Syntactic definition chains: every RHS ever assigned to each local,
	// flow-insensitive (check 2 owns the path-sensitive part).
	defs := make(map[types.Object][]ast.Expr)
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					defs[obj] = append(defs[obj], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if obj := info.Defs[name]; obj != nil {
						defs[obj] = append(defs[obj], n.Values[i])
					}
				}
			}
		}
		return true
	})

	var diags []Diagnostic
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "close") || len(call.Args) != 1 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if ok, why := closeOwner(info, arg, params, recv, defs, 0); !ok {
			diags = append(diags, diag(l.fset, RuleChanDisc, call,
				"close of %s by a non-owner (%s); only the creating owner closes a channel", types.ExprString(arg), why))
		}
		return true
	})
	return diags
}

// closeOwner decides whether the enclosing function owns the close of the
// channel expression. Returns (false, reason) for violations.
func closeOwner(info *types.Info, e ast.Expr, params, recv map[types.Object]bool, defs map[types.Object][]ast.Expr, depth int) (bool, string) {
	if depth > 8 {
		return true, "" // give up quietly on pathological chains
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return true, ""
		}
		if recv[obj] {
			return true, ""
		}
		if params[obj] {
			return false, "the channel is a parameter; ownership stays with the caller"
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true, ""
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			// Package-scope channel: the package owns it.
			return true, ""
		}
		ds := defs[obj]
		if len(ds) == 0 {
			return true, "" // opaque (range var, closure capture): stay quiet
		}
		for _, d := range ds {
			if isMakeChan(info, d) {
				return true, ""
			}
		}
		for _, d := range ds {
			if ux, ok := ast.Unparen(d).(*ast.UnaryExpr); ok && ux.Op == token.ARROW {
				return false, "the channel arrived through another channel; the sender keeps close authority"
			}
		}
		// Derived value (sh := s.shards[i]): ownership follows the root.
		if root := rootIdent(ds[0]); root != nil && root != x {
			return closeOwner(info, root, params, recv, defs, depth+1)
		}
		return true, ""
	case *ast.SelectorExpr:
		// Field close: ownership follows the chain's root. A *struct
		// parameter is accepted — the struct was handed over with its
		// lifecycle — but a root that arrived via a channel receive is
		// not.
		root := rootIdent(x)
		if root == nil {
			return true, ""
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		if obj == nil || recv[obj] || params[obj] {
			return true, ""
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true, ""
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true, ""
		}
		ds := defs[obj]
		for _, d := range ds {
			if ux, ok := ast.Unparen(d).(*ast.UnaryExpr); ok && ux.Op == token.ARROW {
				return false, "the value holding the channel arrived through another channel; the sender keeps close authority"
			}
		}
		for _, d := range ds {
			if r := rootIdent(d); r != nil && r != root {
				return closeOwner(info, r, params, recv, defs, depth+1)
			}
		}
		return true, ""
	}
	return true, "" // index/call results: not resolvable to a def, stay quiet
}

// isMakeChan reports whether the expression is make(chan ...), with or
// without a capacity.
func isMakeChan(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isBuiltin(info, call, "make") || len(call.Args) == 0 {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || !tv.IsType() {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// --- check 2: double-close / send-after-close ----------------------------

// closedState is the set of channel defs that may already be closed.
type closedState map[*types.Var]bool

func (s closedState) clone() closedState {
	out := make(closedState, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// killFieldsOf removes from the state every field def declared by the
// (possibly pointed-to) struct type t: a rebind of the struct variable
// replaces all of its channels at once.
func killFieldsOf(st closedState, t types.Type) {
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < s.NumFields(); i++ {
		delete(st, s.Field(i))
	}
}

func (dst closedState) mergeInto(src closedState) bool {
	changed := false
	for v := range src {
		if !dst[v] {
			dst[v] = true
			changed = true
		}
	}
	return changed
}

func chanCloseFlow(l *loader, p *pkg, body *ast.BlockStmt) []Diagnostic {
	info := p.Info
	g := buildCFG(body)

	in := make([]closedState, len(g.blocks))
	for i := range in {
		in[i] = make(closedState)
	}
	transfer := func(st closedState, atom ast.Node, report func(string, ast.Node, *types.Var)) {
		if _, isDefer := atom.(*ast.DeferStmt); isDefer {
			return // runs at exit, after everything the fixpoint sees
		}
		shallowInspect(atom, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// A fresh value kills the closed state of the target — and,
				// when the target is a struct value (req := <-queue), of
				// every tracked field def of that struct: req.done after the
				// rebind is a different channel.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v := chanVarOf(info, id); v != nil {
							delete(st, v)
							killFieldsOf(st, v.Type())
						}
					}
				}
			case *ast.SendStmt:
				if v := chanVarOf(info, n.Chan); v != nil && st[v] {
					if report != nil {
						report("send on %s, which may already be closed on a path to this statement: a send on a closed channel panics", n, v)
					}
				}
			case *ast.CallExpr:
				if isBuiltin(info, n, "close") && len(n.Args) == 1 {
					if v := chanVarOf(info, n.Args[0]); v != nil {
						if st[v] && report != nil {
							report("close of %s, which may already be closed on a path to this statement: a double close panics", n, v)
						}
						st[v] = true
					}
				}
			}
			return true
		})
	}

	// Worklist fixpoint.
	work := make([]*block, 0, len(g.blocks))
	inWork := make([]bool, len(g.blocks))
	push := func(b *block) {
		if !inWork[b.idx] {
			inWork[b.idx] = true
			work = append(work, b)
		}
	}
	for _, b := range g.blocks {
		push(b)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.idx] = false
		out := in[b.idx].clone()
		for _, atom := range b.atoms {
			transfer(out, atom, nil)
		}
		for _, s := range b.succs {
			if in[s.idx].mergeInto(out) {
				push(s)
			}
		}
	}

	// Report pass in construction order for deterministic output.
	var diags []Diagnostic
	for _, b := range g.blocks {
		st := in[b.idx].clone()
		for _, atom := range b.atoms {
			transfer(st, atom, func(format string, n ast.Node, v *types.Var) {
				diags = append(diags, diag(l.fset, RuleChanDisc, n, format, v.Name()))
			})
		}
	}
	return diags
}

// --- check 3: bounded queues ---------------------------------------------

// chanBoundedQueues flags capacity-less make(chan) creations assigned to
// queue-named destinations.
func chanBoundedQueues(l *loader, p *pkg) []Diagnostic {
	info := p.Info
	var diags []Diagnostic
	flag := func(name string, mk ast.Expr) {
		lower := strings.ToLower(name)
		if !strings.Contains(lower, "queue") && !strings.Contains(lower, "jobs") {
			return
		}
		diags = append(diags, diag(l.fset, RuleChanDisc, mk,
			"%s is created without a capacity: bounded queues need an explicit make(chan T, n) so producers get backpressure instead of a synchronous rendezvous", name))
	}
	noCapMakeChan := func(e ast.Expr) ast.Expr {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "make") || len(call.Args) != 1 {
			return nil
		}
		if !isMakeChan(info, call) {
			return nil
		}
		return call
	}
	inspectAll(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				mk := noCapMakeChan(rhs)
				if mk == nil {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					flag(lhs.Name, mk)
				case *ast.SelectorExpr:
					flag(lhs.Sel.Name, mk)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if mk := noCapMakeChan(n.Values[i]); mk != nil {
						flag(name.Name, mk)
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if mk := noCapMakeChan(kv.Value); mk != nil {
					flag(key.Name, mk)
				}
			}
		}
		return true
	})
	return diags
}
