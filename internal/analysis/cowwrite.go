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
// slice. The builtins delete, clear and copy write their first argument.
//
// A slot's timer list and its owned bit (w.slots[i].timers,
// w.slots[i].timersOwned) have one writer, the setTimer hook: owning the
// slot slice does not make the list it shares writable, so any other write
// to either is reported, whatever was claimed before it.
//
// Any other write is accepted when one of:
//
//   - the enclosing function is itself an own* hook, setTimer or unseal
//     on World;
//   - a call to a claiming hook on the same receiver appears earlier in
//     the function (ownSlots before slots, ownPartitions before the
//     partition relation, ownInflight before Inflight); ownService and
//     setTimer claim nothing, since they may leave the slots shared;
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
	"slots":       {"ownSlots"},
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

// timerHook is the one writer of a slot's timer list and owned bit.
const timerHook = "setTimer"

// isWorldOwnHook reports whether fn is one of the blessed ownership
// methods on World itself.
func isWorldOwnHook(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	if name := fn.Name.Name; !strings.HasPrefix(name, "own") && name != "unseal" && name != timerHook {
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
				if base, field, part := cowWriteTarget(pass, lhs); field != "" {
					checkCowWrite(pass, fn, n.Pos(), base, field, part)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && writesFirstArg[id.Name] && len(n.Args) > 0 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					if base, field, part := cowWriteTarget(pass, n.Args[0]); field != "" {
						checkCowWrite(pass, fn, n.Pos(), base, field, part)
					}
				}
			}
		}
		return true
	})
}

// writesFirstArg names the builtins that write their first argument.
var writesFirstArg = map[string]bool{"delete": true, "clear": true, "copy": true}

// cowWriteTarget decodes a written expression into (receiver, field, part)
// when it writes a COW-guarded World field — the whole field (w.slots =
// ...), an element (w.slots[i] = ...), or a part of one (w.slots[i].svc =
// ..., w.slots[i].timers[j] = ..., copy(w.slots[i].timers[j:], ...)). part
// is the element's field written, "" for none.
func cowWriteTarget(pass *Pass, expr ast.Expr) (base ast.Expr, field, part string) {
	expr, part = containerOf(expr)
	base, field = worldField(pass, expr)
	return base, field, part
}

// containerOf peels element indexing, slicing, and field selection on an
// element, off expr down to the expression naming the container; part is
// the field selected on the element, "" for none.
func containerOf(expr ast.Expr) (container ast.Expr, part string) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if _, elem := e.X.(*ast.IndexExpr); !elem {
				return expr, part
			}
			expr, part = e.X, e.Sel.Name
		default:
			return expr, part
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

// checkCowWrite reports the write at pos: always for a slot's timer list
// or its owned bit, else unless a matching own-hook call on the same
// receiver occurs earlier in the function.
func checkCowWrite(pass *Pass, fn *ast.FuncDecl, pos token.Pos, base ast.Expr, field, part string) {
	recv := types.ExprString(base)
	if field == "slots" && (part == "timers" || part == "timersOwned") {
		pass.Reportf(pos,
			"write to slot timer list %s.slots[...].%s outside %s: the list may be shared with other worlds whatever the function claimed (arm or cancel through %s)",
			recv, part, timerHook, timerHook)
		return
	}
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
