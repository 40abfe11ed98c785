package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"fortyconsensus/internal/det"
)

// A Program is the whole-module view the interprocedural analyzers
// work over: every package one Loader produced, indexed, plus a
// package-level call graph whose nodes are the module's declared
// functions and methods. Stdlib functions are not nodes — calls into
// the standard library are leaves the per-analyzer source detectors
// judge directly.
//
// The graph is deliberately conservative where Go's dynamism makes the
// callee ambiguous:
//
//   - a method value or function value reference (`f := n.helper`,
//     `sort.Slice(x, n.less)`) adds an edge to the referenced
//     function even though the call happens elsewhere or never — a
//     laundering wrapper must not escape by being invoked through a
//     variable;
//   - a call through an interface method adds one edge per concrete
//     module type that implements the interface, plus an edge to the
//     interface method itself so facts can be attached either way.
//
// Both shapes are exercised by the callgraph unit tests.
type Program struct {
	pkgs  map[string]*Package
	paths []string // sorted package paths, for deterministic iteration

	funcs map[*types.Func]*FuncNode
	// impls maps an interface method to the concrete module methods a
	// dynamic dispatch through it may reach.
	impls map[*types.Func][]*types.Func
}

// A FuncNode is one declared function or method of the module together
// with its outgoing call edges.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls holds the outgoing edges in source order.
	Calls []Call
}

// A CallKind classifies how an edge was established.
type CallKind uint8

const (
	// CallStatic is a direct call whose callee is known exactly.
	CallStatic CallKind = iota
	// CallRef is a function or method value reference outside call
	// position; the referenced function may run later under a name the
	// graph cannot see, so it is kept as an edge.
	CallRef
	// CallDynamic is an edge synthesized for an interface-method
	// dispatch: one per concrete implementation, resolved
	// conservatively over every type in the program.
	CallDynamic
)

// A Call is one outgoing edge.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
	Kind   CallKind
}

// NewProgram indexes every package the loader has produced and builds
// the call graph. Call it after all target packages are loaded; the
// loader's cache then also holds every module-internal dependency.
func NewProgram(l *Loader) *Program {
	p := &Program{
		pkgs:  make(map[string]*Package),
		funcs: make(map[*types.Func]*FuncNode),
		impls: make(map[*types.Func][]*types.Func),
	}
	p.paths = det.SortedKeys(l.cache)
	for _, path := range p.paths {
		p.pkgs[path] = l.cache[path]
	}
	for _, path := range p.paths {
		p.indexPackage(p.pkgs[path])
	}
	p.resolveInterfaces()
	return p
}

// Package returns the loaded package at path, or nil.
func (p *Program) Package(path string) *Package { return p.pkgs[path] }

// Packages returns every loaded package in path order.
func (p *Program) Packages() []*Package {
	out := make([]*Package, 0, len(p.paths))
	for _, path := range p.paths {
		out = append(out, p.pkgs[path])
	}
	return out
}

// Func returns the node for fn, or nil when fn is not declared in the
// module (stdlib, or synthesized). Generic instantiations resolve to
// their origin declaration.
func (p *Program) Func(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return p.funcs[fn.Origin()]
}

// Funcs returns every declared function node, ordered by position so
// diagnostics derived from a sweep are stable.
func (p *Program) Funcs() []*FuncNode {
	out := make([]*FuncNode, 0, len(p.funcs))
	//lint:allow maporder nodes are collected then sorted by position before anything observes their order
	for _, n := range p.funcs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Impls returns the concrete module methods a dispatch through
// interface method m may reach.
func (p *Program) Impls(m *types.Func) []*types.Func { return p.impls[m.Origin()] }

// indexPackage creates a node per FuncDecl and records its edges.
// Function literals are attributed to the enclosing declaration: a
// source or call inside a closure still belongs, for taint purposes,
// to the function that created it.
func (p *Program) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Fn: obj, Decl: fd, Pkg: pkg}
			p.funcs[obj.Origin()] = node
			p.collectEdges(node, fd.Body)
		}
	}
}

// collectEdges walks one function body and records every resolvable
// call and every function/method value reference.
func (p *Program) collectEdges(node *FuncNode, body ast.Node) {
	info := node.Pkg.TypesInfo
	// callPos marks the Fun expressions of direct calls so the
	// reference sweep below does not double-count them.
	callPos := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		callPos[fun] = true
		if fn := calleeFunc(info, fun); fn != nil {
			kind := CallStatic
			if recvIsInterface(fn) {
				kind = CallDynamic
			}
			node.Calls = append(node.Calls, Call{Callee: fn.Origin(), Pos: call.Pos(), Kind: kind})
		}
		return true
	})
	// seenSel marks selector Sel idents already judged (as a call or a
	// reference) so the Ident case below does not re-count them while
	// still descending into the selector's X operand.
	seenSel := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			seenSel[e.Sel] = true
			if callPos[ast.Expr(e)] {
				return true
			}
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
				kind := CallRef
				if recvIsInterface(fn) {
					kind = CallDynamic
				}
				node.Calls = append(node.Calls, Call{Callee: fn.Origin(), Pos: e.Pos(), Kind: kind})
			}
		case *ast.Ident:
			if callPos[ast.Expr(e)] || seenSel[e] {
				return true
			}
			if fn, ok := info.Uses[e].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
				node.Calls = append(node.Calls, Call{Callee: fn.Origin(), Pos: e.Pos(), Kind: CallRef})
			}
		}
		return true
	})
}

// calleeFunc resolves the *types.Func a call expression invokes, or
// nil for func-typed variables, builtins and conversions.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeFunc(info, f.X)
	case *ast.IndexListExpr:
		return calleeFunc(info, f.X)
	}
	return nil
}

// recvIsInterface reports whether fn is an interface method, i.e. its
// receiver type is an interface.
func recvIsInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return types.IsInterface(recv.Type())
}

// resolveInterfaces computes, for every interface method appearing as
// a CallDynamic callee, the concrete module methods a dispatch may
// reach: every named type in the program that implements the
// interface contributes its method of the same name. The resolution
// is conservative — it assumes any implementing type may flow into
// the call site.
func (p *Program) resolveInterfaces() {
	// Gather the interface methods that appear as dynamic callees, as a
	// position-sorted slice so everything downstream iterates stably.
	seen := make(map[*types.Func]bool)
	var wanted []*types.Func
	for _, node := range p.Funcs() {
		for _, c := range node.Calls {
			if c.Kind == CallDynamic && !seen[c.Callee] {
				seen[c.Callee] = true
				wanted = append(wanted, c.Callee)
			}
		}
	}
	if len(wanted) == 0 {
		return
	}
	// Sweep every named type once, testing it against each wanted
	// interface.
	for _, path := range p.paths {
		pkg := p.pkgs[path]
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, m := range wanted {
				iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if !ok {
					continue
				}
				var impl types.Type
				switch {
				case types.Implements(named, iface):
					impl = named
				case types.Implements(ptr, iface):
					impl = ptr
				default:
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
				if cm, ok := obj.(*types.Func); ok {
					if p.funcs[cm.Origin()] != nil {
						p.impls[m.Origin()] = append(p.impls[m.Origin()], cm.Origin())
					}
				}
			}
		}
	}
	for _, m := range wanted {
		list := p.impls[m.Origin()]
		sort.Slice(list, func(i, j int) bool { return list[i].Pos() < list[j].Pos() })
	}
}
