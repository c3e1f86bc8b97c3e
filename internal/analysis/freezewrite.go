package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// freezeWriteAllowed returns whether the package is part of the build path
// that legitimately mutates storage: the relation package itself (Freeze,
// Insert, index building), the dataset builders that populate tables before
// core.Open freezes them, and the normalizer, which constructs the virtual
// view schemas (decomposition, merging, FK inference) during core.Open.
func freezeWriteAllowed(path string) bool {
	return path == relationPkg ||
		path == "kwagg/internal/normalize" ||
		strings.HasPrefix(path, "kwagg/internal/dataset")
}

// deltaSeamFuncs are the relation-package entry points of the incremental
// epoch builder: they extend frozen storage in place (claiming the base
// table's spare backing capacity — see relation.ExtendFrozen), and
// ExtendFrozenDatabase patches the base database's cached inverted index
// into the next epoch's through AppendRows. Both are only sound under the
// single-committer discipline core.Live.Commit enforces with its mutex.
var deltaSeamFuncs = map[string]bool{
	"ExtendFrozen":         true,
	"ExtendFrozenDatabase": true,
	"AppendRows":           true,
}

// deltaSeamAllowed returns whether the package may call the delta-builder
// seam directly: the relation package itself and core, whose Live.Commit is
// the one sanctioned epoch builder. Everything else must go through
// core.Live — a direct call would mutate spare capacity of tables another
// epoch may own.
func deltaSeamAllowed(path string) bool {
	return path == relationPkg || path == "kwagg/internal/core"
}

// schemaMetaFields are the Schema fields that define keys and dependencies;
// rewriting them after build silently changes superkey and FD reasoning
// (IsSuperkey, EffectiveFDs) mid-flight.
var schemaMetaFields = map[string]bool{
	"Attributes":  true,
	"PrimaryKey":  true,
	"ForeignKeys": true,
	"FDs":         true,
}

// FreezeWrite reports writes through relation.Table fields (Schema, Tuples —
// including element writes like t.Tuples[i] = row) and through the key/FD
// metadata fields of relation.Schema, anywhere outside the relation package
// and the dataset builders. After core.Open the database is frozen and
// shared by concurrent queries; such a write is a data race and invalidates
// the dictionaries, hash indexes and caches built at Freeze.
//
// It also reports direct calls to the incremental epoch builder's seam
// (relation.ExtendFrozen / ExtendFrozenDatabase / InvertedIndex.AppendRows)
// outside the sanctioned allowlist (deltaSeamAllowed): those functions write
// into frozen storage's spare capacity under a one-shot claim, which is only
// race-free under core.Live.Commit's single-committer mutex. The database
// owns its keyword index (relation.Database.Index), so the index is patched
// inside ExtendFrozenDatabase and core never calls AppendRows itself.
func FreezeWrite() *Analyzer {
	a := &Analyzer{
		Name: "freezewrite",
		Doc:  "mutation of relation.Table / relation.Schema storage outside the Freeze/build path",
	}
	a.Run = func(pkg *Pkg) []Diagnostic {
		fieldOK := freezeWriteAllowed(pkg.Path)
		seamOK := deltaSeamAllowed(pkg.Path)
		if fieldOK && seamOK {
			return nil
		}
		var diags []Diagnostic
		check := func(lhs ast.Expr, verb string) {
			sel, field, owner := frozenField(pkg.Info, lhs)
			if sel == nil {
				return
			}
			diags = append(diags, Diagnostic{
				Analyzer: "freezewrite",
				Pos:      pkg.Fset.Position(sel.Pos()),
				Message: verb + " relation." + owner + "." + field +
					" outside the Freeze/build path; the database is frozen and shared after core.Open — build new tables instead of mutating stored ones",
			})
		}
		checkCall := func(call *ast.CallExpr) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != relationPkg || !deltaSeamFuncs[fn.Name()] {
				return
			}
			diags = append(diags, Diagnostic{
				Analyzer: "freezewrite",
				Pos:      pkg.Fset.Position(sel.Pos()),
				Message: "calls relation." + fn.Name() +
					" outside the epoch-builder seam; the delta freeze claims frozen tables' spare capacity and is only race-free under core.Live.Commit — ingest through core.Live instead",
			})
		}
		for _, fd := range funcDecls(pkg) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if !fieldOK {
						for _, lhs := range st.Lhs {
							check(lhs, "assigns to")
						}
					}
				case *ast.IncDecStmt:
					if !fieldOK {
						check(st.X, "mutates")
					}
				case *ast.CallExpr:
					if !seamOK {
						checkCall(st)
					}
				}
				return true
			})
		}
		return diags
	}
	return a
}

// frozenField unwraps an lvalue (through indexing, dereference and parens)
// to a selector on a relation.Table or relation.Schema field covered by the
// freeze contract. It returns the selector, field name and owning type name,
// or nils.
func frozenField(info *types.Info, e ast.Expr) (*ast.SelectorExpr, string, string) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			selInfo, ok := info.Selections[x]
			if !ok || selInfo.Kind() != types.FieldVal {
				return nil, "", ""
			}
			recv := selInfo.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != relationPkg {
				// Not a relation type; but the selector base may still be one
				// (e.g. db.Table("T").Tuples — base is a call, stop there).
				e = x.X
				continue
			}
			field := selInfo.Obj().Name()
			switch named.Obj().Name() {
			case "Table":
				return x, field, "Table"
			case "Schema":
				if schemaMetaFields[field] {
					return x, field, "Schema"
				}
				return nil, "", ""
			default:
				return nil, "", ""
			}
		default:
			return nil, "", ""
		}
	}
}
