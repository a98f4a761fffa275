package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Poolpair codifies the pooling ownership invariants of the zero-allocation
// commit path: every value taken from a sync.Pool (x.Get()) must be
// returned to it before the function exits — a Put preceding every return,
// or a deferred Put.
//
// The analysis is per-function and source-order-based: at every return it
// compares acquires and releases of the same pool seen earlier in the body.
// That resolves the common shapes exactly — defer, early-error returns with
// a Put on each branch, loop-local Get/Put — and over-approximates branchy
// flows and ownership handoffs (a buffer stored in a struct and released
// elsewhere), for which //aickpt:allow poolpair states the ownership
// argument explicitly (which is the point: a reader should find it stated).
var Poolpair = &Analyzer{
	Name: "poolpair",
	Doc:  "sync.Pool Get needs a Put on every return path",
	Run:  runPoolpair,
}

type poolEvent struct {
	pool    string
	pos     token.Pos
	acquire bool
}

func runPoolpair(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolBalance(pass, fd)
		}
	}
}

func checkPoolBalance(pass *Pass, fd *ast.FuncDecl) {
	var events []poolEvent
	deferred := map[string]bool{}
	var returns []token.Pos

	// classify recognizes sync.Pool method calls; the pool's identity is the
	// receiver expression's source form.
	classify := func(call *ast.CallExpr) (poolEvent, bool) {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Get" || sel.Sel.Name == "Put") {
			if tv, ok := pass.Info.Types[sel.X]; ok && isSyncPool(tv.Type) {
				return poolEvent{pool: types.ExprString(sel.X), pos: call.Pos(), acquire: sel.Sel.Name == "Get"}, true
			}
		}
		return poolEvent{}, false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if ev, ok := classify(n.Call); ok && !ev.acquire {
				deferred[ev.pool] = true
			}
			return true
		case *ast.ReturnStmt:
			returns = append(returns, n.End())
			return true
		case *ast.CallExpr:
			if ev, ok := classify(n); ok {
				events = append(events, ev)
			}
			return true
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	// The fall-off-the-end exit is a return path too.
	returns = append(returns, fd.Body.End())
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	reported := map[token.Pos]bool{}
	for _, ret := range returns {
		balance := map[string]int{}          // pool -> unreleased acquires before ret
		firstLeak := map[string]*poolEvent{} // pool -> earliest candidate site
		for i := range events {
			ev := &events[i]
			if ev.pos >= ret || deferred[ev.pool] {
				continue
			}
			if ev.acquire {
				balance[ev.pool]++
				if firstLeak[ev.pool] == nil {
					firstLeak[ev.pool] = ev
				}
			} else {
				balance[ev.pool]--
			}
		}
		for pool, n := range balance {
			if n <= 0 {
				continue
			}
			ev := firstLeak[pool]
			if reported[ev.pos] {
				continue
			}
			reported[ev.pos] = true
			retPos := pass.Fset.Position(ret)
			pass.Reportf(ev.pos,
				"%s acquire is not released on the return path ending at line %d (add a Put, defer it, or state the handoff with //aickpt:allow poolpair)",
				pool, retPos.Line)
		}
	}
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}
