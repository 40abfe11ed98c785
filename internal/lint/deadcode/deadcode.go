// Package deadcode implements the whole-module reachability analyzer:
// a declared function or method that no program of the module can
// reach is a finding. Code only tests call belongs in a _test.go file
// beside them, and code nobody calls belongs nowhere.
//
// Reachability is computed once per analysis.Program from these roots:
//
//   - every func main of a package main, and every func init;
//   - every function referenced from a package-level variable's
//     initialiser (`var Analyzer = &analysis.Analyzer{Run: run}`);
//   - every method whose name and signature match a method of a
//     standard-library interface: the standard library calls String,
//     Error, Write or an http.ResponseWriter's WriteHeader through
//     values the module hands it, out of the call graph's sight.
//
// From the roots the walk follows the call graph's edges — calls and
// function or method values alike — except that a call through an
// interface or a type parameter reaches the method of every module type
// that implements it (some instance of it, for a generic interface:
// analysis.Program.Impls) only once reached code mentions that type, or
// a type that embeds it: a type no reached code names, builds or
// converts to is never behind the interface.
//
// The same walk judges configuration: a field of a module struct type
// named …Config, …Options or …Params is a finding when nothing reached
// sets it but a withDefaults method or a Default… function. A setting
// only a default or a test ever chooses is a constant with a name that
// invites change nobody makes.
//
// The analyzer needs the whole module in the Program: with no package
// main loaded there is nothing to reach from, and it reports nothing.
package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"fortyconsensus/internal/lint/analysis"
)

// New returns the deadcode analyzer. awaiting names, in
// types.Func.FullName form, functions that stay unreached on purpose
// until a planned caller lands; knobs names, as "path.Type.Field",
// configuration fields only tests set on purpose. Each entry is
// reported once a program reaches or sets it, or if it names nothing
// its package declares, so both lists can only shrink.
func New(awaiting, knobs []string) *analysis.Analyzer {
	listed := func(name string) bool { return slices.Contains(awaiting, name) || slices.Contains(knobs, name) }
	var (
		lastProg *analysis.Program
		live     map[*types.Func]bool
		set      map[*types.Var]bool
	)
	run := func(pass *analysis.Pass) (interface{}, error) {
		if pass.Prog == nil {
			return nil, nil
		}
		if pass.Prog != lastProg {
			lastProg, live = pass.Prog, reachable(pass.Prog)
			set = settings(pass.Prog, live)
		}
		if live == nil {
			return nil, nil
		}
		declared := make(map[string]bool)
		for _, node := range pass.Prog.Funcs() {
			if node.Fn.Pkg() != pass.Pkg {
				continue
			}
			name := node.Fn.FullName()
			declared[name] = true
			switch {
			case listed(name) && live[node.Fn]:
				pass.Reportf(node.Decl.Name.Pos(), "%s is reachable now; take it off the awaiting list", name)
			case !listed(name) && !live[node.Fn]:
				pass.Reportf(node.Decl.Name.Pos(), "%s is unreachable from every main, init and package-level initialiser; delete it, or move it into the _test.go file that uses it", name)
			}
		}
		scope := pass.Pkg.Scope()
		for _, typeName := range scope.Names() {
			st := configStruct(scope.Lookup(typeName))
			for i := 0; st != nil && i < st.NumFields(); i++ {
				f := st.Field(i)
				name := pass.Pkg.Path() + "." + typeName + "." + f.Name()
				declared[name] = true
				switch {
				case listed(name) && set[f]:
					pass.Reportf(f.Pos(), "%s is set by a program now; take it off the tested-knobs list", name)
				case !listed(name) && !set[f]:
					pass.Reportf(f.Pos(), "%s is set by no program, only by its defaults or tests; fold it into the constant it is", name)
				}
			}
		}
		for _, name := range slices.Concat(awaiting, knobs) {
			if !declared[name] && pkgPath(name) == pass.Pkg.Path() {
				pass.Reportf(pass.Files[0].Name.Pos(), "%s is listed exempt, but %s does not declare it", name, pass.Pkg.Path())
			}
		}
		return nil, nil
	}
	return &analysis.Analyzer{
		Name: "deadcode",
		Doc:  "flag functions no main, init or package-level initialiser of the module can reach, and config fields none of them sets",
		Run:  run,
	}
}

// pkgPath returns the package path of a types.Func.FullName ("path.F",
// "(path.T).M" or "(*path.T).M") or of a knob name ("path.T.F").
func pkgPath(full string) string {
	full = strings.TrimLeft(full, "(*")
	slash := strings.LastIndex(full, "/")
	if i := strings.Index(full[slash+1:], "."); i >= 0 {
		return full[:slash+1+i]
	}
	return ""
}

// configStruct returns obj's struct when obj names a struct type
// …Config, …Options or …Params, and nil otherwise.
func configStruct(obj types.Object) *types.Struct {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() || !(strings.HasSuffix(tn.Name(), "Config") ||
		strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Params")) {
		return nil
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	return st
}

// settings returns every struct field a package-level initialiser or a
// reached function sets, but for what withDefaults methods and Default…
// functions set: a configuration's defaults are no setting of it.
func settings(prog *analysis.Program, live map[*types.Func]bool) map[*types.Var]bool {
	set := make(map[*types.Var]bool)
	mark := func(f *types.Var) { set[f] = true }
	for _, node := range prog.Funcs() {
		name, method := node.Fn.Name(), node.Decl.Recv != nil
		if live[node.Fn] && !(method && name == "withDefaults" || !method && strings.HasPrefix(name, "Default")) {
			markSets(node.Pkg.TypesInfo, node.Decl.Body, mark)
		}
	}
	for _, pkg := range prog.Packages() {
		for _, gd := range varDecls(pkg) {
			markSets(pkg.TypesInfo, gd, mark)
		}
	}
	return set
}

// markSets calls mark with every struct field node sets: a key of a
// composite literal (every field, for a literal without keys), the
// target of an assignment, or the operand of & (flag.IntVar's). A field
// of a generic type is marked as declared, not as instantiated.
func markSets(info *types.Info, node ast.Node, mark func(*types.Var)) {
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
			if f, ok := info.Selections[sel].Obj().(*types.Var); ok {
				mark(f.Origin())
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem() // an elided &T{…}
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						mark(info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin())
					} else {
						mark(st.Field(i).Origin())
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}

// reachable walks the call graph from the roots and returns every
// module function it reaches, or nil when the Program holds no package
// main.
func reachable(prog *analysis.Program) map[*types.Func]bool {
	var roots []*types.Func
	hasMain := false
	std := stdInterfaceMethods(prog)
	for _, node := range prog.Funcs() {
		fn := node.Fn
		sig := fn.Type().(*types.Signature)
		if sig.Recv() != nil {
			if std.match(fn.Name(), sig) {
				roots = append(roots, fn)
			}
			continue
		}
		switch {
		case fn.Name() == "init":
			roots = append(roots, fn)
		case fn.Name() == "main" && fn.Pkg().Name() == "main":
			roots = append(roots, fn)
			hasMain = true
		}
	}
	if !hasMain {
		return nil
	}
	for _, pkg := range prog.Packages() {
		roots = append(roots, initialiserRefs(pkg)...)
	}

	live := make(map[*types.Func]bool)
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if node := prog.Func(fn); node != nil && !live[node.Fn] {
			live[node.Fn] = true
			queue = append(queue, node.Fn)
		}
	}
	mentioned := make(map[*types.TypeName]bool)
	pending := make(map[*types.TypeName][]*types.Func) // dispatched to, not yet mentioned
	dispatch := func(callee *types.Func) {
		for _, m := range prog.Impls(callee) {
			if tn := recvType(m); mentioned[tn] {
				mark(m)
			} else {
				pending[tn] = append(pending[tn], m)
			}
		}
	}
	var mention func(t types.Type)
	mention = func(t types.Type) {
		tn := typeName(t)
		if tn == nil || mentioned[tn] {
			return
		}
		mentioned[tn] = true
		for _, m := range pending[tn] {
			mark(m)
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Embedded() {
					mention(st.Field(i).Type())
				}
			}
		}
	}
	mentions := func(info *types.Info, node ast.Node) {
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if tn, ok := info.Uses[id].(*types.TypeName); ok {
					mention(tn.Type())
				}
			}
			return true
		})
	}
	for _, pkg := range prog.Packages() {
		for _, gd := range varDecls(pkg) {
			mentions(pkg.TypesInfo, gd)
		}
	}
	for _, fn := range roots {
		if isDynamic(fn) {
			dispatch(fn)
		} else {
			mark(fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		mentions(prog.Func(fn).Pkg.TypesInfo, prog.Func(fn).Decl)
		for _, c := range prog.Func(fn).Calls {
			if c.Kind == analysis.CallDynamic || isDynamic(c.Callee) {
				dispatch(c.Callee)
			} else {
				mark(c.Callee)
			}
		}
	}
	return live
}

// typeName returns the declaration of the named type t is, or points
// to, and nil for any other type.
func typeName(t types.Type) *types.TypeName {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// recvType returns the declaration of method fn's receiver type.
func recvType(fn *types.Func) *types.TypeName {
	return typeName(fn.Type().(*types.Signature).Recv().Type())
}

// isDynamic reports whether fn is an interface method — what a call
// through an interface value or a type parameter resolves to.
func isDynamic(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// initialiserRefs returns every function a package-level variable's
// initialiser references, by call or by value.
func initialiserRefs(pkg *analysis.Package) []*types.Func {
	var refs []*types.Func
	for _, gd := range varDecls(pkg) {
		ast.Inspect(gd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
					refs = append(refs, fn.Origin())
				}
			}
			return true
		})
	}
	return refs
}

// varDecls returns the package-level var declarations of pkg.
func varDecls(pkg *analysis.Package) []*ast.GenDecl {
	var decls []*ast.GenDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				decls = append(decls, gd)
			}
		}
	}
	return decls
}

// stdMethods holds the methods of interface types by name: those the
// standard library packages the module loads declare, and for Params
// the module's own too.
type stdMethods map[string][]*types.Signature

// match reports whether a method of that name and signature would
// satisfy some standard-library interface method.
func (s stdMethods) match(name string, sig *types.Signature) bool {
	for _, want := range s[name] {
		if types.Identical(sig, want) { // receivers are ignored
			return true
		}
	}
	return false
}

func (s stdMethods) add(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		s[m.Name()] = append(s[m.Name()], m.Type().(*types.Signature))
	}
}

// stdInterfaceMethods collects the methods of every named interface
// type in the standard-library packages the module imports, directly
// or not.
func stdInterfaceMethods(prog *analysis.Program) stdMethods {
	module := make(map[*types.Package]bool)
	var stack []*types.Package
	for _, pkg := range prog.Packages() {
		module[pkg.Types] = true
		stack = append(stack, pkg.Types)
	}
	out := make(stdMethods)
	add := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				out.add(iface)
			}
		}
	}
	add(types.Universe) // error
	seen := make(map[*types.Package]bool)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		stack = append(stack, p.Imports()...)
		if !module[p] {
			add(p.Scope())
		}
	}
	return out
}
