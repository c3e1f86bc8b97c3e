package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// relationPkg is the import path of the storage package whose Format helper
// materializes a string per call.
const relationPkg = "kwagg/internal/relation"

// HotAlloc reports per-row allocation patterns inside loops in the sqldb
// execution kernels, whose ~0 allocs/row budget is pinned by alloc_test.go:
//
//   - fmt.Sprintf / fmt.Sprint calls (always allocate),
//   - string concatenation onto a variable with += (reallocates every
//     iteration),
//   - relation.Format results appended into a []byte key buffer — use
//     relation.AppendFormat, which appends digits directly,
//   - make(...) in the batch-kernel block loops (any function running the
//     per-block kernels of batch.go) — block scratch must come from the
//     executor's reused buffers (ensureBits/ensureIdx), not be reallocated
//     once per block,
//   - in non-test code, make, append or a composite literal of elements of
//     type relation.Value or relation.Tuple — rowsets carry dictionary IDs
//     only, and values are boxed once, when the Result is decoded, into
//     storage allocated outside the loop.
//
// Loops are where rows are processed; the same patterns outside a loop are
// per-statement, not per-row, and are not flagged.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "per-row allocations inside sqldb kernel loops pinned by alloc_test.go",
	}
	a.Run = func(pkg *Pkg) []Diagnostic {
		if pkg.Path != "kwagg/internal/sqldb" {
			return nil
		}
		var diags []Diagnostic
		for _, fd := range funcDecls(pkg) {
			test := strings.HasSuffix(pkg.Fset.Position(fd.Pos()).Filename, "_test.go")
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch l := n.(type) {
				case *ast.ForStmt:
					body = l.Body
				case *ast.RangeStmt:
					body = l.Body
				default:
					return true
				}
				diags = append(diags, checkHotLoop(pkg, body, test)...)
				return true
			})
		}
		return diags
	}
	return a
}

// checkHotLoop scans one loop body of a test (test) or production function.
// Nested loops are skipped here — the outer Inspect visits them separately —
// so each site is reported exactly once, at the innermost loop containing
// it.
func checkHotLoop(pkg *Pkg, body *ast.BlockStmt, test bool) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, msg string) {
		diags = append(diags, Diagnostic{
			Analyzer: "hotalloc",
			Pos:      pkg.Fset.Position(n.Pos()),
			Message:  msg,
		})
	}
	// A loop that polls the per-block cancellation counter stepN is a
	// batch-kernel block loop (batch.go's kernels are the only callers):
	// there, make(...) allocates scratch once per block and is flagged —
	// scratch must come from the executor's reused ensure* buffers.
	blockLoop := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "stepN" {
				blockLoop = true
			}
		}
		return true
	})
	// Identifiers assigned from relation.Format inside this loop body.
	formatted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.AssignStmt:
			if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 && isString(pkg.Info.TypeOf(st.Lhs[0])) {
				report(st, "string += in a kernel loop reallocates every iteration; build into a reused []byte or strings.Builder hoisted out of the loop")
				return true
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(st.Lhs) {
					continue
				}
				if _, ok := isPkgCall(pkg.Info, call, relationPkg, "Format"); ok {
					if id, ok := st.Lhs[i].(*ast.Ident); ok {
						if obj := pkg.Info.ObjectOf(id); obj != nil {
							formatted[obj] = true
						}
					}
				}
			}
		case *ast.CompositeLit:
			if !test && boxesValues(pkg.Info.TypeOf(st)) {
				report(st, "composite literal of relation.Value/Tuple elements in an sqldb loop boxes values per row; rowsets carry dictionary IDs, decoded once into the Result")
			}
		case *ast.CallExpr:
			if !test && len(st.Args) > 0 && (isBuiltinMake(pkg.Info, st) || isBuiltinAppend(pkg.Info, st)) &&
				boxesValues(pkg.Info.TypeOf(st.Args[0])) {
				report(st, "make/append of relation.Value/Tuple elements in an sqldb loop boxes values per row; rowsets carry dictionary IDs, decoded once into the Result")
				return true
			}
			if blockLoop && isBuiltinMake(pkg.Info, st) {
				report(st, "make in a batch-kernel block loop allocates scratch once per block; reuse the executor's ensure* buffers or hoist the allocation out of the loop")
				return true
			}
			if name, ok := isPkgCall(pkg.Info, st, "fmt", "Sprintf", "Sprint", "Sprintln"); ok {
				report(st, "fmt."+name+" allocates on every row; format into a reused buffer (strconv.Append*, relation.AppendFormat) instead")
				return true
			}
			if isBuiltinAppend(pkg.Info, st) && st.Ellipsis != token.NoPos && len(st.Args) == 2 {
				arg := st.Args[1]
				if call, ok := arg.(*ast.CallExpr); ok {
					if _, ok := isPkgCall(pkg.Info, call, relationPkg, "Format"); ok {
						report(st, "relation.Format materializes a string per row before the append; use relation.AppendFormat(dst, v) instead")
						return true
					}
				}
				if id, ok := arg.(*ast.Ident); ok && formatted[pkg.Info.ObjectOf(id)] {
					report(st, "relation.Format materializes a string per row before the append; use relation.AppendFormat(dst, v) instead")
				}
			}
		}
		return true
	})
	return diags
}

// boxesValues reports whether t is a slice, array or map whose elements are
// relation.Value or relation.Tuple.
func boxesValues(t types.Type) bool {
	if t == nil {
		return false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	case *types.Map:
		elem = u.Elem()
	default:
		return false
	}
	n, ok := elem.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != relationPkg {
		return false
	}
	return n.Obj().Name() == "Value" || n.Obj().Name() == "Tuple"
}

// isBuiltinMake reports whether call is the builtin make(...).
func isBuiltinMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}
