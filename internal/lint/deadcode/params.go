package deadcode

import (
	"go/ast"
	"go/types"

	"fortyconsensus/internal/lint/analysis"
)

// Params is the unused-parameter analyzer: a named parameter its
// function's body never reads is a finding. A function whose signature
// something else fixes is exempt: a method with the name and signature
// of a method of some interface (the module's, a constraint's or the
// standard library's), and a function or method the module takes as a
// value, which a func-typed field, variable or argument fixes. Such a
// function names the parameter it ignores _.
var Params = newParams()

func newParams() *analysis.Analyzer {
	var (
		lastProg *analysis.Program
		fixed    stdMethods           // every interface method, by name
		valued   map[*types.Func]bool // every function taken as a value
	)
	run := func(pass *analysis.Pass) (interface{}, error) {
		if pass.Prog == nil {
			return nil, nil
		}
		if pass.Prog != lastProg {
			lastProg, fixed, valued = pass.Prog, stdInterfaceMethods(pass.Prog), make(map[*types.Func]bool)
			for _, pkg := range pass.Prog.Packages() {
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						if it, ok := n.(*ast.InterfaceType); ok {
							fixed.add(pkg.TypesInfo.TypeOf(it).(*types.Interface))
						}
						return true
					})
				}
				for _, fn := range initialiserRefs(pkg) {
					valued[fn] = true
				}
			}
			for _, node := range pass.Prog.Funcs() {
				for _, c := range node.Calls {
					if c.Kind == analysis.CallRef {
						valued[c.Callee] = true
					}
				}
			}
		}
		unreadParams(pass, fixed, valued)
		return nil, nil
	}
	return &analysis.Analyzer{
		Name: "unusedparam",
		Doc:  "flag named parameters a function body never reads, unless an interface or a func-typed use fixes its signature",
		Run:  run,
	}
}

// unreadParams reports each parameter of pass's functions their body
// never reads, but in the functions whose signature is fixed.
func unreadParams(pass *analysis.Pass, fixed stdMethods, valued map[*types.Func]bool) {
	for _, node := range pass.Prog.Funcs() {
		fn, sig := node.Fn, node.Fn.Type().(*types.Signature)
		if fn.Pkg() != pass.Pkg || valued[fn] || sig.Recv() != nil && fixed.match(fn.Name(), sig) {
			continue
		}
		read := make(map[types.Object]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				read[pass.TypesInfo.Uses[id]] = true
			}
			return true
		})
		for _, field := range node.Decl.Type.Params.List {
			for _, name := range field.Names {
				if name.Name != "_" && !read[pass.TypesInfo.Defs[name]] {
					pass.Reportf(name.Pos(), "parameter %s of %s is never read; drop it, or name it _ where an interface or a func type fixes the signature", name.Name, fn.FullName())
				}
			}
		}
	}
}
