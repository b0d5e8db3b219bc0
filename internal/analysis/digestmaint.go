package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DigestmaintAnalyzer enforces the incremental world-digest contract from
// two directions.
//
// Kind coverage: every package-level `Kind<Name>` string constant must
// have a package-level body type `<Name>` implementing sm.BodyDigester.
// Bodies without a digester hash through the fmt reflection fallback,
// which reruns per state visit and silently diverges on pointer or map
// bodies — the generalization of digest_coverage_test.go's hand-rolled
// source scan, checked against the type system instead of sample values.
//
// Maintenance: inside methods of World, every write to a
// digest-contributing container must be accompanied in the same function
// by the corresponding incremental-hash update — markDigestDirty (or a
// whole-digest reset) for per-node state (a slot's svc, timers or down),
// an inflightSum adjustment for in-flight appends, a partSum adjustment
// for partition-relation writes. This approximates the paper contract "every
// digest-contributing write is post-dominated by its hash update" at
// function granularity, which is the granularity the World API actually
// maintains.
var DigestmaintAnalyzer = &Analyzer{
	Name: "digestmaint",
	Doc: "require BodyDigester coverage for every message kind and " +
		"incremental-hash maintenance for every digest-contributing write",
	Filter: func(pkgPath string) bool {
		return strings.HasPrefix(pkgPath, "crystalchoice/")
	},
	Run: runDigestmaint,
}

func runDigestmaint(pass *Pass) error {
	checkKindCoverage(pass)
	checkDigestWrites(pass)
	return nil
}

// digesterInterface resolves the BodyDigester interface visible to this
// package: from an imported sm package when present, else declared
// locally (fixtures). Nil when the package has no digest vocabulary at
// all, which exempts it from kind coverage.
func digesterInterface(pass *Pass) *types.Interface {
	lookup := func(scope *types.Scope) *types.Interface {
		obj := scope.Lookup("BodyDigester")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	for _, imp := range pass.Pkg.Imports() {
		if strings.HasSuffix(imp.Path(), "/sm") || imp.Path() == "sm" {
			if iface := lookup(imp.Scope()); iface != nil {
				return iface
			}
		}
	}
	return lookup(pass.Pkg.Scope())
}

// checkKindCoverage reports Kind constants without a digestible body
// type.
func checkKindCoverage(pass *Pass) {
	iface := digesterInterface(pass)
	if iface == nil {
		return
	}
	scope := pass.Pkg.Scope()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					checkKindConst(pass, scope, iface, name)
				}
			}
		}
	}
}

// checkKindConst verifies one Kind<Name> constant's body type.
func checkKindConst(pass *Pass, scope *types.Scope, iface *types.Interface, name *ast.Ident) {
	bodyName := strings.TrimPrefix(name.Name, "Kind")
	if bodyName == name.Name || bodyName == "" {
		return
	}
	obj := pass.TypesInfo.Defs[name]
	cnst, ok := obj.(*types.Const)
	if !ok || !isStringType(cnst.Type()) {
		return
	}
	bodyObj := scope.Lookup(bodyName)
	tn, ok := bodyObj.(*types.TypeName)
	if !ok {
		pass.Reportf(name.Pos(),
			"message kind %s has no package-level body type %s: its bodies hash through the reflection fallback",
			name.Name, bodyName)
		return
	}
	t := tn.Type()
	if types.Implements(t, iface) {
		return
	}
	if types.Implements(types.NewPointer(t), iface) {
		pass.Reportf(name.Pos(),
			"body type %s implements BodyDigester only with a pointer receiver: bodies sent by value hash through the reflection fallback",
			bodyName)
		return
	}
	pass.Reportf(name.Pos(),
		"body type %s does not implement BodyDigester: kind %s hashes through the reflection fallback",
		bodyName, name.Name)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// digestMaintained maps each digest-contributing World container to the
// maintenance evidence required in the writing function.
type digestRule struct {
	// needle is the selector name whose presence in the function proves
	// the incremental sum is adjusted.
	needle string
	// elementOnly restricts the check to element writes/deletes;
	// whole-field assignments move ownership, not content.
	elementOnly bool
	// appendOnly restricts the check to x.F = append(...) assignments
	// (the in-flight slice: slicing/copying preserves the multiset).
	appendOnly bool
	// parts, when set, restricts the check to writes of these fields of an
	// element (and of whole elements): the rest is bookkeeping.
	parts []string
}

var digestRules = map[string]digestRule{
	"slots":       {needle: "markDigestDirty", elementOnly: true, parts: []string{"svc", "timers", "down"}},
	"partitioned": {needle: "partSum", elementOnly: true},
	"Inflight":    {needle: "inflightSum", appendOnly: true},
}

// covers reports whether the rule applies to a write of element part
// ("" for the whole element).
func (r digestRule) covers(part string) bool {
	return part == "" || r.parts == nil || slices.Contains(r.parts, part)
}

// checkDigestWrites enforces the maintenance half over World methods.
func checkDigestWrites(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || pass.FuncSuppressed(fn) {
				continue
			}
			recv := worldReceiver(pass, fn)
			if recv == "" {
				continue
			}
			checkDigestFunc(pass, fn, recv)
		}
	}
}

// worldReceiver returns the receiver identifier name when fn is a method
// on (a pointer to) a type named World, else "".
func worldReceiver(pass *Pass, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	if !ok || id.Name != "World" {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// checkDigestFunc flags digest-contributing writes in one World method
// that lack their maintenance evidence.
func checkDigestFunc(pass *Pass, fn *ast.FuncDecl, recv string) {
	// Evidence scan: which maintenance signals does the function contain?
	hasNeedle := make(map[string]bool)
	digReset := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch n.Sel.Name {
			case "markDigestDirty", "partSum", "inflightSum":
				hasNeedle[n.Sel.Name] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "dig" {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
						digReset = true
					}
				}
			}
		}
		return true
	})

	report := func(pos token.Pos, field string, rule digestRule) {
		if digReset || hasNeedle[rule.needle] {
			return
		}
		pass.Reportf(pos,
			"digest-contributing write to %s.%s without %s in the same function: the maintained world digest goes stale",
			recv, field, rule.needle)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				field, isElement, part := receiverField(recv, lhs)
				rule, tracked := digestRules[field]
				if !tracked || !rule.covers(part) {
					continue
				}
				if rule.elementOnly && !isElement {
					continue
				}
				if rule.appendOnly {
					if isElement || i >= len(n.Rhs) || !isAppendCall(n.Rhs[i]) {
						continue
					}
				}
				report(n.Pos(), field, rule)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && writesFirstArg[id.Name] && len(n.Args) > 0 {
				// The builtins write content, element by element.
				if field, _, part := receiverField(recv, n.Args[0]); field != "" {
					if rule, tracked := digestRules[field]; tracked && !rule.appendOnly && rule.covers(part) {
						report(n.Pos(), field, rule)
					}
				}
			}
		}
		return true
	})
}

// receiverField decodes expr as recv.Field, recv.Field[i] or
// recv.Field[i].part (indexed or sliced further or not), returning the
// field name, whether the write addresses an element, and the element's
// part ("" for the whole element).
func receiverField(recv string, expr ast.Expr) (field string, isElement bool, part string) {
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr, isElement = e.X, true
			continue
		case *ast.SliceExpr:
			expr = e.X
			continue
		}
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return "", false, ""
		}
		if _, elem := sel.X.(*ast.IndexExpr); elem {
			expr, part = sel.X, sel.Sel.Name
			continue
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recv {
			return "", false, ""
		}
		return sel.Sel.Name, isElement, part
	}
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}
