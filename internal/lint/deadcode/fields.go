package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"fortyconsensus/internal/lint/analysis"
)

// Fields is the unread-field analyzer: a field of a struct type a
// module package declares is a finding when no code, tests included,
// reads it. Setting a field is no read of it: the target of an
// assignment, of ++ or of an op=, and a composite literal's key are
// writes. Every other selection of the field is a read, and so is:
//
//   - a selection whose promoted path passes through it (an embedded
//     field is read, too, by the methods it promotes into its struct's
//     method set, which a dispatch may call out of the walk's sight);
//   - an == or != on its whole struct, its struct as a map key, or as
//     the type argument of a comparable type parameter;
//   - its whole struct handed to fmt, encoding/json or encoding/binary,
//     which read every field by reflection.
//
// A tagged field is exempt (a tag is for reflection to read), and a
// field of a generic struct is judged as declared, not per instance.
var Fields = newFields()

// reflecting names the packages whose functions read every field of
// what they are passed.
var reflecting = []string{"fmt", "encoding/json", "encoding/binary"}

func newFields() *analysis.Analyzer {
	var (
		lastProg *analysis.Program
		read     map[token.Pos]bool // by the field's declaring position
		err      error
	)
	run := func(pass *analysis.Pass) (interface{}, error) {
		if pass.Prog == nil {
			return nil, nil
		}
		if pass.Prog != lastProg {
			lastProg = pass.Prog
			read, err = fieldReads(pass.Prog)
		}
		if err != nil {
			return nil, err
		}
		for _, tn := range namedStructs(pass.Pkg) {
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() != "_" && st.Tag(i) == "" && !read[f.Pos()] {
					pass.Reportf(f.Pos(), "field %s.%s is never read, not even by a test; delete it and what sets it", tn.Name(), f.Name())
				}
			}
		}
		return nil, nil
	}
	return &analysis.Analyzer{
		Name: "unreadfield",
		Doc:  "flag struct fields no code, tests included, reads: setting a field is no use of it",
		Run:  run,
	}
}

// fieldReads returns the declaring positions of every field the
// module's code and tests read.
func fieldReads(prog *analysis.Program) (map[token.Pos]bool, error) {
	tests, err := prog.Tests()
	if err != nil {
		return nil, err
	}
	read := make(map[token.Pos]bool)
	// mark marks every field of the struct t is, and of the structs its
	// fields are, at any depth, looking through arrays (a comparison
	// compares their elements) and, deep, through pointers, slices and
	// maps too (reflection follows them).
	var mark func(t types.Type, deep bool, seen map[types.Type]bool)
	mark = func(t types.Type, deep bool, seen map[types.Type]bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Pos()] = true
				mark(u.Field(i).Type(), deep, seen)
			}
		case *types.Array:
			mark(u.Elem(), deep, seen)
		case *types.Pointer:
			if deep {
				mark(u.Elem(), deep, seen)
			}
		case *types.Slice:
			if deep {
				mark(u.Elem(), deep, seen)
			}
		case *types.Map:
			if deep {
				mark(u.Key(), deep, seen)
				mark(u.Elem(), deep, seen)
			}
		}
	}
	compared := func(t types.Type) { mark(t, false, make(map[types.Type]bool)) }
	reflected := func(t types.Type) { mark(t, true, make(map[types.Type]bool)) }
	for _, pkg := range append(prog.Packages(), tests...) {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			readsIn(info, f, read, compared, reflected)
		}
		for _, tn := range namedStructs(pkg.Types) {
			promoted(tn, read)
		}
	}
	return read, nil
}

// readsIn records the fields file reads by selection, by comparison
// and through the reflecting packages.
func readsIn(info *types.Info, file *ast.File, read map[token.Pos]bool, compared, reflected func(types.Type)) {
	written := make(map[*ast.SelectorExpr]bool)
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key)
				if n.Value != nil {
					write(n.Value)
				}
			}
		}
		return true
	})
	ast.Inspect(file, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && info.Types[e].Type != nil {
			if m, ok := info.Types[e].Type.Underlying().(*types.Map); ok {
				compared(m.Key())
			}
		}
		switch n := n.(type) {
		case *ast.Ident:
			if inst, ok := info.Instances[n]; ok {
				tps := typeParams(info.Uses[n])
				for i := 0; i < tps.Len(); i++ {
					if c, ok := tps.At(i).Constraint().Underlying().(*types.Interface); ok && c.IsComparable() {
						compared(inst.TypeArgs.At(i))
					}
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				return true
			}
			// Every field the path passes through is read; the field
			// selected too unless this selection is a write of it. A
			// method's path ends in the method's index.
			path, t := sel.Index(), sel.Recv()
			if sel.Kind() != types.FieldVal {
				path = path[:len(path)-1]
			}
			for i, idx := range path {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := st.Field(idx)
				if i < len(path)-1 || sel.Kind() != types.FieldVal || !written[n] {
					read[f.Pos()] = true
				}
				t = f.Type()
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				compared(info.TypeOf(n.X))
				compared(info.TypeOf(n.Y))
			}
		case *ast.CallExpr:
			// fmt.Println(v), json.Marshal(v), enc.Encode(v): always a
			// selector.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && slices.Contains(reflecting, fn.Pkg().Path()) {
					for _, arg := range n.Args {
						reflected(info.TypeOf(arg))
					}
				}
			}
		}
		return true
	})
}

// typeParams returns the type parameters of the generic function or
// type obj names.
func typeParams(obj types.Object) *types.TypeParamList {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin().Type().(*types.Signature).TypeParams()
	case *types.TypeName:
		if named, ok := obj.Type().(*types.Named); ok {
			return named.Origin().TypeParams()
		}
	}
	return nil
}

// promoted marks the embedded fields of tn's struct that promote a
// method into the method set of *tn.
func promoted(tn *types.TypeName, read map[token.Pos]bool) {
	st := tn.Type().Underlying().(*types.Struct)
	mset := types.NewMethodSet(types.NewPointer(tn.Type()))
	for i := 0; i < mset.Len(); i++ {
		if idx := mset.At(i).Index(); len(idx) > 1 {
			read[st.Field(idx[0]).Pos()] = true
		}
	}
}

// namedStructs returns pkg's package-level struct types.
func namedStructs(pkg *types.Package) []*types.TypeName {
	var out []*types.TypeName
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if _, ok := tn.Type().Underlying().(*types.Struct); ok {
				out = append(out, tn)
			}
		}
	}
	return out
}
