// Package clampalloc flags allocations sized by wire-decoded integers
// that reach make() without a clamp — the hostile-count allocation-bomb
// class fixed by hand in PRs 4, 5 and 7 (proof counts, conjunct counts,
// snapshot table counts). A count field read off the wire is
// attacker-controlled: a 10-byte frame declaring 2^32 elements must not
// force a multi-gigabyte allocation before the decode loop notices the
// payload is short.
//
// A decoded count is cleared for allocation by flowing through one of
// the blessed clamps before reaching make():
//
//   - wire.ClampCount(n, possible) — the repo's single blessed sink
//   - the min() builtin
//   - a validated guard: if <comparison involving n> { return ... }
//
// The analysis is an intra-function forward taint pass: values produced
// by wire.Buffer integer accessors (U8/U16/U32/U64) and encoding/binary
// decoders are tainted; taint propagates through conversions,
// arithmetic and assignment; clamp calls and terminating guards
// sanitize. It runs over the repo's protocol-decoding packages (wire,
// query, authindex, storage, server, client, replica).
package clampalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the clampalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "clampalloc",
	Doc: "make() sized by a wire-decoded count must flow through wire.ClampCount, " +
		"min(), or a validated guard before allocating (hostile-count allocation bombs)",
	Match: func(path string) bool {
		return analysis.PathHasAnySegment(path, "wire", "query", "authindex", "storage", "server", "client", "replica", "shard", "scanshare")
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn := &funcPass{pass: pass, tainted: map[types.Object]bool{}}
				fn.stmts(fd.Body.List)
			}
		}
	}
	return nil
}

// funcPass is the per-function taint state. The pass is deliberately
// flow-insensitive across branches (one mutable set, statements in
// source order): decode paths are straight-line loops, and the fixture
// suite pins that the idioms the repo actually uses resolve correctly.
type funcPass struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool
}

// stmts processes a statement list in source order.
func (fn *funcPass) stmts(list []ast.Stmt) {
	for _, s := range list {
		fn.stmt(s)
	}
}

func (fn *funcPass) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		fn.exprs(s.Rhs)
		fn.assign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					fn.exprs(vs.Values)
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					fn.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		fn.expr(s.X)
	case *ast.ReturnStmt:
		fn.exprs(s.Results)
	case *ast.IfStmt:
		if s.Init != nil {
			fn.stmt(s.Init)
		}
		fn.expr(s.Cond)
		fn.stmts(s.Body.List)
		if s.Else != nil {
			fn.stmt(s.Else)
		}
		// A terminating guard sanitizes every tainted variable its
		// condition compares: `if int(n) > r.Remaining() { return err }`
		// means n is payload-bounded from here on.
		if isComparison(s.Cond) && terminates(s.Body) {
			for _, id := range identsIn(s.Cond) {
				if obj := fn.pass.Info.Uses[id]; obj != nil {
					delete(fn.tainted, obj)
				}
			}
		}
	case *ast.BlockStmt:
		fn.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			fn.stmt(s.Init)
		}
		if s.Cond != nil {
			fn.expr(s.Cond)
		}
		fn.stmts(s.Body.List)
		if s.Post != nil {
			fn.stmt(s.Post)
		}
	case *ast.RangeStmt:
		fn.expr(s.X)
		fn.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			fn.stmt(s.Init)
		}
		if s.Tag != nil {
			fn.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				fn.exprs(cc.List)
				fn.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				fn.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				fn.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		fn.stmt(s.Stmt)
	case *ast.DeferStmt:
		fn.expr(s.Call)
	case *ast.GoStmt:
		fn.expr(s.Call)
	case *ast.SendStmt:
		fn.expr(s.Value)
	case *ast.IncDecStmt:
		// ++/-- preserves taint.
	}
}

// assign updates taint for one assignment.
func (fn *funcPass) assign(lhs, rhs []ast.Expr) {
	set := func(e ast.Expr, taint bool) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := fn.pass.Info.Defs[id]
		if obj == nil {
			obj = fn.pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if taint {
			fn.tainted[obj] = true
		} else {
			delete(fn.tainted, obj)
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		// n, err := r.U32(): the value result carries the taint.
		if call, ok := rhs[0].(*ast.CallExpr); ok && fn.isSource(call) {
			set(lhs[0], true)
			for _, l := range lhs[1:] {
				set(l, false)
			}
			return
		}
		for _, l := range lhs {
			set(l, false)
		}
		return
	}
	for i, l := range lhs {
		if i < len(rhs) {
			set(l, fn.exprTainted(rhs[i]))
		}
	}
}

// exprs walks expressions looking for unclamped make() sizes.
func (fn *funcPass) exprs(list []ast.Expr) {
	for _, e := range list {
		fn.expr(e)
	}
}

func (fn *funcPass) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope; decode paths do not allocate in closures
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := fn.pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		for _, size := range call.Args[1:] {
			if fn.exprTainted(size) {
				fn.pass.Reportf(size.Pos(),
					"allocation size derives from a wire-decoded count without a clamp; bound it with wire.ClampCount(n, possible), min(), or a validated guard before make()")
			}
		}
		return true
	})
}

// exprTainted reports whether the expression's value derives from an
// unclamped wire-decoded integer.
func (fn *funcPass) exprTainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := fn.pass.Info.Uses[e]
		if obj == nil {
			obj = fn.pass.Info.Defs[e]
		}
		return obj != nil && fn.tainted[obj]
	case *ast.ParenExpr:
		return fn.exprTainted(e.X)
	case *ast.UnaryExpr:
		return fn.exprTainted(e.X)
	case *ast.BinaryExpr:
		return fn.exprTainted(e.X) || fn.exprTainted(e.Y)
	case *ast.CallExpr:
		// A conversion propagates taint; any real call is a boundary:
		// sources taint, everything else (min, ClampCount, len, cap,
		// Remaining) yields a clean value.
		if tv, ok := fn.pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return fn.exprTainted(e.Args[0])
		}
		return fn.isSource(e)
	}
	return false
}

// isSource reports whether the call produces an attacker-controlled
// integer: a wire.Buffer integer accessor or an encoding/binary decode.
func (fn *funcPass) isSource(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	// (*Buffer).U8/U16/U32/U64/Uvarint — by receiver type name, so
	// fixtures and the real wire.Buffer are treated alike.
	switch name {
	case "U8", "U16", "U32", "U64", "Uvarint":
		if tv, ok := fn.pass.Info.Types[sel.X]; ok {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Buffer" {
				return true
			}
		}
	}
	// encoding/binary: LittleEndian.Uint32(...), Uvarint, ReadUvarint...
	if obj, ok := fn.pass.Info.Uses[sel.Sel].(*types.Func); ok {
		if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "encoding/binary" {
			switch {
			case name == "Uvarint", name == "Varint",
				name == "ReadUvarint", name == "ReadVarint",
				len(name) > 4 && name[:4] == "Uint":
				return true
			}
		}
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if recv := sig.Recv().Type(); recv != nil {
				if named, ok := deref(recv).(*types.Named); ok {
					if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "encoding/binary" && len(name) > 4 && name[:4] == "Uint" {
						return true
					}
				}
			}
		}
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isComparison reports whether the condition contains a comparison —
// the shape of a count-validation guard.
func isComparison(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.GTR, token.GEQ, token.LSS, token.LEQ, token.EQL, token.NEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

// terminates reports whether the block always leaves the enclosing
// flow: ends in return, break, continue, goto or panic.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// identsIn returns every identifier in the expression.
func identsIn(e ast.Expr) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}
