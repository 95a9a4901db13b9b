// Package lockio flags blocking I/O performed while a storage-layer
// write lock is held — the latency collapse class that PR3's
// WAL-shipping work had to engineer around: an fsync (or a network
// write, or a sleep) under storage.Store.mu stalls every reader and
// writer in the process for the duration of a disk flush.
//
// The analysis tracks write-lock regions per function: a call to
// Lock() on a sync.Mutex or sync.RWMutex field opens a region keyed by
// the lock's printed expression ("s.mu"), Unlock() closes it, and
// `defer x.Unlock()` leaves it open to the end of the function (which
// is correct: the lock really is held until return). RLock is ignored —
// shared readers do not serialise behind each other.
//
// Inside a region, a call is flagged when it blocks on the world
// outside the process:
//
//   - time.Sleep
//   - any zero-argument Sync() method (os.File and everything shaped
//     like it)
//   - any call into package net
//   - a same-package function that transitively reaches one of the
//     above; the finding spells out the call chain.
//
// Bodies of `go` statements and deferred function literals run outside
// the region and are skipped.
package lockio

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockio analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "no fsync, network I/O, or sleeping while a storage or shard lock is held; " +
		"stage under the lock, flush outside it",
	Match: func(path string) bool {
		return analysis.PathHasAnySegment(path, "storage", "shard", "cache")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	a := &analyzerState{pass: pass, blocking: map[*types.Func]*reason{}}
	a.buildCallGraph()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				a.checkFunc(fd)
			}
		}
	}
	return nil
}

// reason records why a function is considered blocking: either a direct
// banned call (what != "") or a call to another blocking function.
type reason struct {
	what string // "time.Sleep", "fsync", "net I/O" for direct reasons
	via  *types.Func
}

type analyzerState struct {
	pass *analysis.Pass
	// decls maps package-level functions to their bodies.
	decls map[*types.Func]*ast.FuncDecl
	// blocking marks functions that (transitively) perform banned I/O.
	blocking map[*types.Func]*reason
}

// buildCallGraph computes the blocking set over this package's
// functions by fixpoint: direct banned calls seed it, same-package
// calls propagate it.
func (a *analyzerState) buildCallGraph() {
	a.decls = map[*types.Func]*ast.FuncDecl{}
	for _, f := range a.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := a.pass.Info.Defs[fd.Name].(*types.Func); ok {
				a.decls[fn] = fd
			}
		}
	}
	// Seed: direct banned calls anywhere in a body (ignoring go/defer
	// func-lit bodies, which escape the caller's lock context).
	for fn, fd := range a.decls {
		inspectInContext(fd.Body, func(call *ast.CallExpr) {
			if what := a.directBanned(call); what != "" && a.blocking[fn] == nil {
				a.blocking[fn] = &reason{what: what}
			}
		})
	}
	// Propagate through same-package calls until stable.
	for changed := true; changed; {
		changed = false
		for fn, fd := range a.decls {
			if a.blocking[fn] != nil {
				continue
			}
			inspectInContext(fd.Body, func(call *ast.CallExpr) {
				if a.blocking[fn] != nil {
					return
				}
				if callee := a.calleeInPackage(call); callee != nil && a.blocking[callee] != nil {
					a.blocking[fn] = &reason{via: callee}
					changed = true
				}
			})
		}
	}
}

// inspectInContext visits every call in the body that executes in the
// enclosing function's lock context: it skips `go` statement operands
// and deferred function-literal bodies.
func inspectInContext(body *ast.BlockStmt, visit func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if _, ok := n.Call.Fun.(*ast.FuncLit); ok {
				return false
			}
			return true
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// directBanned classifies a call that blocks on the outside world.
func (a *analyzerState) directBanned(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := a.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if obj.FullName() == "time.Sleep" {
		return "time.Sleep"
	}
	// A zero-argument Sync() method is an fsync whatever the receiver:
	// os.File today, any file-shaped wrapper tomorrow.
	if sel.Sel.Name == "Sync" && len(call.Args) == 0 {
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "fsync"
		}
	}
	// Anything from package net: dials, reads, writes, deadlines.
	if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "net" {
		return "net I/O"
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "net" {
				return "net I/O"
			}
		}
	}
	return ""
}

// calleeInPackage resolves a call to a function declared in this
// package, if it is one.
func (a *analyzerState) calleeInPackage(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := a.pass.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if _, declared := a.decls[fn]; !declared {
		return nil
	}
	return fn
}

// chain renders the call path from fn to its direct banned call.
func (a *analyzerState) chain(fn *types.Func) (string, string) {
	path := fn.Name()
	for r := a.blocking[fn]; r != nil; {
		if r.what != "" {
			return path, r.what
		}
		path += " -> " + r.via.Name()
		r = a.blocking[r.via]
	}
	return path, "I/O"
}

// checkFunc walks one function tracking held write locks and reports
// banned calls inside lock regions.
func (a *analyzerState) checkFunc(fd *ast.FuncDecl) {
	held := map[string]bool{}
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if _, ok := n.Call.Fun.(*ast.FuncLit); ok {
				return false
			}
			// defer x.Unlock() keeps the region open to function end —
			// which is the truth — so only non-Unlock defers are checked.
			if lock, op := a.lockOp(n.Call); lock != "" && op == "Unlock" {
				return false
			}
			return true
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lock, op := a.lockOp(n); lock != "" {
				switch op {
				case "Lock":
					held[lock] = true
				case "Unlock":
					delete(held, lock)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			if what := a.directBanned(n); what != "" {
				a.pass.Reportf(n.Pos(), "%s while %s is write-locked; stage under the lock, flush outside it", what, heldNames(held))
				return true
			}
			if callee := a.calleeInPackage(n); callee != nil && a.blocking[callee] != nil {
				path, what := a.chain(callee)
				a.pass.Reportf(n.Pos(), "call performs %s (%s) while %s is write-locked; stage under the lock, flush outside it", what, path, heldNames(held))
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// lockOp recognises x.Lock() / x.Unlock() on a sync.Mutex or
// sync.RWMutex and returns the lock's printed key and the operation.
// RLock/RUnlock return "" — read locks are not serialising.
func (a *analyzerState) lockOp(call *ast.CallExpr) (lock, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" {
		return "", ""
	}
	tv, ok := a.pass.Info.Types[sel.X]
	if !ok {
		return "", ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", ""
	}
	return types.ExprString(sel.X), name
}

// heldNames renders the held lock set for the diagnostic.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 1 {
		return names[0]
	}
	// Deterministic order for multi-lock messages.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := names[0]
	for _, n := range names[1:] {
		out += ", " + n
	}
	return out
}
