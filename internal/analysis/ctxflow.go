package analysis

import (
	"go/ast"
	"go/types"
)

// sqldbPkg is the import path of the SQL executor package.
const sqldbPkg = "kwagg/internal/sqldb"

// CtxFlow checks that the statement-execution path threads context.Context
// instead of minting fresh roots:
//
//   - context.Background() / context.TODO() inside a function that already
//     has a context.Context parameter discards the caller's deadline and
//     cancellation;
//   - the same inside a function with an *http.Request parameter discards
//     the request context (use r.Context());
//   - calling sqldb.ExecSQL, the one executor entry point without a
//     context, from a function that has a context defeats per-statement
//     deadlines and chaos cancellation — use sqldb.ExecOpts.
//
// The convenience wrappers themselves (Answer, ExecSQL, …) have no context
// parameter and are allowed to root one.
func CtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc:  "request-path code must thread context.Context, not mint context.Background()",
	}
	a.Run = func(pkg *Pkg) []Diagnostic {
		var diags []Diagnostic
		for _, fd := range funcDecls(pkg) {
			hasCtx := hasCtxParam(pkg.Info, fd.Type)
			hasReq := hasRequestParam(pkg.Info, fd.Type)
			if !hasCtx && !hasReq {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				// A nested function literal with its own ctx param is a new
				// scope making its own choices; don't descend.
				if fl, ok := n.(*ast.FuncLit); ok && hasCtxParam(pkg.Info, fl.Type) {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := isPkgCall(pkg.Info, call, "context", "Background", "TODO"); ok {
					src := "the context.Context parameter"
					if !hasCtx {
						src = "r.Context()"
					}
					diags = append(diags, Diagnostic{
						Analyzer: "ctxflow",
						Pos:      pkg.Fset.Position(call.Pos()),
						Message:  "context." + name + " discards the caller's deadline and cancellation; thread " + src + " instead",
					})
					return true
				}
				if hasCtx && pkg.Path != sqldbPkg {
					if name, ok := isPkgCall(pkg.Info, call, sqldbPkg, "ExecSQL"); ok {
						diags = append(diags, Diagnostic{
							Analyzer: "ctxflow",
							Pos:      pkg.Fset.Position(call.Pos()),
							Message:  "sqldb." + name + " roots a fresh context; call sqldb.ExecOpts with the context already in scope",
						})
					}
				}
				return true
			})
		}
		return diags
	}
	return a
}

// hasRequestParam reports whether the function type declares an
// *net/http.Request parameter.
func hasRequestParam(info *types.Info, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, fl := range ft.Params.List {
		t := info.TypeOf(fl.Type)
		p, ok := t.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := p.Elem().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Request" {
			return true
		}
	}
	return false
}
