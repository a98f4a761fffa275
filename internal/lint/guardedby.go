package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Guardedby enforces the repository's locking annotations: a struct field
// annotated //aickpt:guardedby <mu> may only be accessed from functions
// that either follow the xxxLocked naming convention (caller holds the
// lock) or contain an acquisition of that mutex (x.mu.Lock() /
// x.mu.RLock()).
//
// The check is deliberately flow-insensitive: it asks "does this function
// ever take the lock", not "is the lock held at this statement" — exactly
// the review question the off-lock commit pipeline (PR 3) and the
// off-critical-path selector build (PR 4) were audited against. Functions
// that drop the lock around blocking work keep passing; a function that
// touches guarded state without ever locking (the bug class the convention
// exists to stop) is flagged. Composite-literal construction is not a
// field access, so constructors that initialize and then publish stay
// clean. Intentional pre-publication writes outside the literal are
// annotated //aickpt:allow guardedby.
var Guardedby = &Analyzer{
	Name: "guardedby",
	Doc:  "guarded struct fields must be accessed under their mutex or from xxxLocked functions",
	Run:  runGuardedby,
}

// guardInfo describes one guarded field: the mutex object that must be
// acquired and display names for diagnostics.
type guardInfo struct {
	structName string
	fieldName  string
	mutexName  string
	mutex      types.Object
}

func runGuardedby(pass *Pass) {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedAccesses(pass, fd, guarded)
		}
	}
}

// collectGuardedFields finds every annotated field in the package's struct
// declarations and resolves its guarding mutex (a sibling field).
func collectGuardedFields(pass *Pass) map[types.Object]*guardInfo {
	guarded := map[types.Object]*guardInfo{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				muName, ok := guardMutexName(field.Doc, field.Comment)
				if !ok {
					continue
				}
				mu := findSiblingField(pass, st, muName)
				if mu == nil {
					pass.Reportf(field.Pos(), "field is marked guarded by %q, but struct %s has no such field", muName, ts.Name.Name)
					continue
				}
				if !isLockable(mu.Type()) {
					pass.Reportf(field.Pos(), "field is marked guarded by %q, but %s.%s is %s, not a mutex or sync.Locker",
						muName, ts.Name.Name, muName, mu.Type())
					continue
				}
				for _, name := range field.Names {
					obj := pass.Info.Defs[name]
					if obj == nil {
						continue
					}
					guarded[obj] = &guardInfo{
						structName: ts.Name.Name,
						fieldName:  name.Name,
						mutexName:  muName,
						mutex:      mu,
					}
				}
			}
			return true
		})
	}
	return guarded
}

func findSiblingField(pass *Pass, st *ast.StructType, name string) types.Object {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return pass.Info.Defs[n]
			}
		}
	}
	return nil
}

// isLockable reports whether t can plausibly guard state: sync.Mutex,
// sync.RWMutex, sync.Locker, or any other type carrying a Lock method
// (e.g. the sim package's virtual-time mutexes behind sync.Locker).
func isLockable(t types.Type) bool {
	for _, u := range []types.Type{t, types.NewPointer(t)} {
		if m, _, _ := types.LookupFieldOrMethod(u, true, nil, "Lock"); m != nil {
			if _, ok := m.(*types.Func); ok {
				return true
			}
		}
	}
	return false
}

// checkGuardedAccesses flags selector accesses to guarded fields inside fd
// unless fd is exempt by naming convention or acquires the guarding mutex
// somewhere in its body.
func checkGuardedAccesses(pass *Pass, fd *ast.FuncDecl, guarded map[types.Object]*guardInfo) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	acquired := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if obj := selectedObject(pass, sel.X); obj != nil {
			acquired[obj] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := selectedObject(pass, sel)
		info, ok := guarded[obj]
		if !ok {
			return true
		}
		if acquired[info.mutex] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s.%s is guarded by %s, but %s neither acquires %s nor follows the xxxLocked convention",
			info.structName, info.fieldName, info.mutexName, fd.Name.Name, info.mutexName)
		return true
	})
}

// selectedObject resolves the object an expression selects: the field or
// method of a SelectorExpr (through Selections for implicit derefs), or the
// object behind a plain identifier.
func selectedObject(pass *Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[e]; ok {
			return s.Obj()
		}
		return pass.Info.Uses[e.Sel]
	case *ast.Ident:
		return pass.Info.Uses[e]
	}
	return nil
}
