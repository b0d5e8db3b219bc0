package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CowwriteAnalyzer enforces the copy-on-write discipline on World's
// shared containers. A forked World shares its per-node slot slice, the
// partition relation, and the in-flight slice with its parent and
// siblings; writing any of them without first claiming ownership through
// the matching own* hook mutates every world sharing the container — a
// cross-branch state leak the explorer cannot detect, and exactly the bug
// class PR 8's interposition fixes were.
//
// A write to a slot's field (w.slots[i].svc = ...) is a write to the slot
// slice.
//
// A write is accepted when one of:
//
//   - the enclosing function is itself an own* hook (or unseal) on World;
//   - a call to a claiming hook on the same receiver appears earlier in
//     the function (ownSlots or ownTimers — which returns with the slots
//     owned — before slots, ownPartitions before the partition relation,
//     ownInflight before Inflight); ownService claims nothing, since it
//     leaves a self-cloning service's slots shared;
//   - the function's doc comment carries //crystalvet:cowwrite <reason> —
//     the blessing for the few functions that manage container ownership
//     by hand (cloneInto, Patch, the pool's put, RemoveInflight).
//
// A write through an alias (s := &w.slots[i]; s.svc = ...) is not seen:
// outside the hooks, write through the receiver.
var CowwriteAnalyzer = &Analyzer{
	Name: "cowwrite",
	Doc: "require World's shared containers to be claimed via their own* " +
		"hook before direct writes",
	Filter: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "crystalchoice/")
	},
	Run: runCowwrite,
}

// cowHooks maps each COW-guarded World field to the hook calls that claim
// it for writing.
var cowHooks = map[string][]string{
	"slots":       {"ownSlots", "ownTimers"},
	"partitioned": {"ownPartitions"},
	"Inflight":    {"ownInflight"},
}

func runCowwrite(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.FuncSuppressed(fn) {
				continue
			}
			if isWorldOwnHook(fn) {
				continue
			}
			checkCowFunc(pass, fn)
		}
	}
	return nil
}

// isWorldOwnHook reports whether fn is one of the blessed ownership
// methods on World itself.
func isWorldOwnHook(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	if !strings.HasPrefix(fn.Name.Name, "own") && fn.Name.Name != "unseal" {
		return false
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "World"
}

// checkCowFunc flags unguarded writes to World's COW fields in one
// function.
func checkCowFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				base, field := cowWriteTarget(pass, lhs)
				if field != "" {
					checkCowWrite(pass, fn, n.Pos(), base, field)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					if base, field := worldField(pass, containerOf(n.Args[0])); field != "" {
						checkCowWrite(pass, fn, n.Pos(), base, field)
					}
				}
			}
		}
		return true
	})
}

// cowWriteTarget decodes an assignment lhs into (receiver, field) when it
// writes a COW-guarded World field — the whole field (w.slots = ...), an
// element (w.slots[i] = ...), or a part of one (w.slots[i].svc = ...,
// w.slots[i].timers[name] = ...).
func cowWriteTarget(pass *Pass, lhs ast.Expr) (ast.Expr, string) {
	return worldField(pass, containerOf(lhs))
}

// containerOf peels element indexing, and field selection on an element,
// off expr down to the expression naming the container.
func containerOf(expr ast.Expr) ast.Expr {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if _, elem := e.X.(*ast.IndexExpr); !elem {
				return expr
			}
			expr = e.X
		default:
			return expr
		}
	}
}

// worldField reports the (receiver, field name) of expr when it selects a
// COW-guarded field of a value of type World.
func worldField(pass *Pass, expr ast.Expr) (ast.Expr, string) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if _, guarded := cowHooks[sel.Sel.Name]; !guarded {
		return nil, ""
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return nil, ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "World" {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// checkCowWrite reports the write at pos unless a matching own-hook call
// on the same receiver occurs earlier in the function.
func checkCowWrite(pass *Pass, fn *ast.FuncDecl, pos token.Pos, base ast.Expr, field string) {
	recv := types.ExprString(base)
	hooks := cowHooks[field]
	claimed := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if claimed {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || types.ExprString(sel.X) != recv {
			return true
		}
		for _, h := range hooks {
			if sel.Sel.Name == h {
				claimed = true
				return false
			}
		}
		return true
	})
	if !claimed {
		pass.Reportf(pos,
			"write to shared World container %s.%s without a preceding %s call: forks sharing the container see the mutation (claim ownership first, or bless the function with //crystalvet:cowwrite <reason>)",
			recv, field, strings.Join(hooks, "/"))
	}
}
