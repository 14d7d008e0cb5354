package analysis

import (
	"go/types"
	"testing"
)

// lookupFunc resolves a package-level function by name.
func lookupFunc(t *testing.T, p *pkg, name string) *types.Func {
	t.Helper()
	fn, ok := p.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("function %s not found in %s", name, p.ImportPath)
	}
	return fn
}

// lookupMethod resolves a method on a package-level named type.
func lookupMethod(t *testing.T, p *pkg, typeName, method string) *types.Func {
	t.Helper()
	tn, ok := p.Types.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		t.Fatalf("type %s not found in %s", typeName, p.ImportPath)
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p.Types, method)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("method %s.%s not found", typeName, method)
	}
	return fn
}

func hasCallee(g *callGraph, from, to *types.Func) bool {
	for _, c := range g.callees(from) {
		if c == to {
			return true
		}
	}
	return false
}

// TestCallGraphFixture pins the three over-approximation guarantees on
// the fixture hot package: interface dispatch fans out to concrete
// methods, method values create edges, and mutual recursion neither
// hangs the closure walk nor falls out of it.
func TestCallGraphFixture(t *testing.T) {
	l, err := newLoader(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.load("fixture/internal/hot")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph([]*pkg{p})

	feed := lookupFunc(t, p, "Feed")
	handle := lookupFunc(t, p, "Handle")
	even := lookupFunc(t, p, "Even")
	odd := lookupFunc(t, p, "Odd")
	bufAdd := lookupMethod(t, p, "Buf", "Add")

	if !hasCallee(g, feed, bufAdd) {
		t.Error("interface dispatch: Feed should have an edge to (*Buf).Add")
	}
	if !hasCallee(g, handle, bufAdd) {
		t.Error("method value: Handle should have an edge to (*Buf).Add")
	}
	if !hasCallee(g, even, odd) || !hasCallee(g, odd, even) {
		t.Error("mutual recursion: Even<->Odd edges missing")
	}

	// reach must terminate on the cycle and keep both halves (plus the
	// dispatched method) in the closure, attributed to the right roots.
	from := g.reach([]*types.Func{feed, even})
	if from[bufAdd] != feed {
		t.Errorf("(*Buf).Add attributed to %v, want Feed", from[bufAdd])
	}
	if from[odd] != even || from[even] != even {
		t.Error("recursive closure under-approximates: Even/Odd not reached from Even")
	}
}

// TestCallGraphRepo checks dispatch expansion over the real module's two
// central interfaces: fedcore.Aggregator (Engine.Run -> every aggregator
// Add) and compress.Codec (DecodeEnvelope -> every codec DecodeInto).
func TestCallGraphRepo(t *testing.T) {
	l, err := newLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := l.load("fhdnn/internal/fedcore")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := l.load("fhdnn/internal/compress")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph([]*pkg{comp, fed})

	run := lookupMethod(t, fed, "Engine", "Run")
	for _, agg := range []string{"FedAvg", "Bundle", "AsyncStaleness"} {
		add := lookupMethod(t, fed, agg, "Add")
		if !hasCallee(g, run, add) {
			t.Errorf("Engine.Run should dispatch to (*%s).Add through Aggregator", agg)
		}
	}

	dec := lookupFunc(t, fed, "DecodeEnvelope")
	for _, codec := range []string{"Raw", "Float16", "Int8", "TopK"} {
		d := lookupMethod(t, comp, codec, "DecodeInto")
		if !hasCallee(g, dec, d) {
			t.Errorf("DecodeEnvelope should dispatch to %s.DecodeInto through compress.Codec", codec)
		}
	}
}

// TestSpawnSites pins the spawn-edge collection on the fixture relay:
// a go statement launching a function literal carries the literal (nil
// target), and a direct method launch resolves the module function.
func TestSpawnSites(t *testing.T) {
	l, err := newLoader(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.load("fixture/internal/flnet")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph([]*pkg{p})

	pump := lookupMethod(t, p, "relay", "pump")
	spawnPump := lookupFunc(t, p, "SpawnPump")
	spawnLit := lookupFunc(t, p, "SpawnLit")

	named := g.nodes[spawnPump].spawns
	if len(named) != 1 {
		t.Fatalf("SpawnPump: got %d spawn sites, want 1", len(named))
	}
	if named[0].target != pump || named[0].lit != nil {
		t.Errorf("SpawnPump spawn: target=%v lit=%v, want target=(*relay).pump lit=nil",
			named[0].target, named[0].lit)
	}
	if named[0].stmt == nil {
		t.Error("SpawnPump spawn: go statement not recorded")
	}

	lits := g.nodes[spawnLit].spawns
	if len(lits) != 1 {
		t.Fatalf("SpawnLit: got %d spawn sites, want 1", len(lits))
	}
	if lits[0].lit == nil || lits[0].target != nil {
		t.Errorf("SpawnLit spawn: target=%v lit=%v, want a literal with nil target",
			lits[0].target, lits[0].lit)
	}

	if len(g.nodes[pump].spawns) != 0 {
		t.Error("pump spawns nothing; its spawn list should be empty")
	}
}

// TestGoroutineOnly pins the greatest-fixpoint classification: direct
// spawn targets and their exclusively-goroutine helpers stay marked,
// while one ordinary caller demotes a helper.
func TestGoroutineOnly(t *testing.T) {
	l, err := newLoader(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.load("fixture/internal/flnet")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph([]*pkg{p})
	only := g.goroutineOnly()

	pump := lookupMethod(t, p, "relay", "pump")
	forward := lookupMethod(t, p, "relay", "forward")
	shared := lookupMethod(t, p, "relay", "shared")
	spawnPump := lookupFunc(t, p, "SpawnPump")
	useShared := lookupFunc(t, p, "UseShared")

	if !only[pump] {
		t.Error("pump is the direct target of a go statement; it must stay marked")
	}
	if !only[forward] {
		t.Error("forward is reached only from pump; the fixpoint must keep it marked")
	}
	if only[shared] {
		t.Error("shared is also called from UseShared on the caller's stack; it must be demoted")
	}
	if only[spawnPump] || only[useShared] {
		t.Error("SpawnPump/UseShared run on the caller's stack; neither may be marked")
	}
}
