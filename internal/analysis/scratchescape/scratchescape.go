// Package scratchescape defines an analyzer enforcing the scratch-arena
// lifetime contract of internal/pim/scratch.go: buffers handed out by
// the unexported scratch* accessor family (scratchRow, scratchWords,
// scratchRowList) are arena-backed and valid only until the
// enclosing top-level operation returns. They must never outlive it.
//
// Two escape routes are checked:
//
//   - return: an exported function or method returning a value whose
//     backing storage derives from a scratch accessor — directly,
//     through a local, a slice/index expression, a Row{Words: ...}
//     wrapper, a struct literal adopting a scratch row (Reduction-style
//     results), an append chain rooted in a scratch list, or an
//     unexported same-package helper that itself returns scratch
//     storage (reducePlaced-style wrappers);
//   - goroutine: any function — exported or not — passing scratch
//     storage to a spawned goroutine, as an argument or a closed-over
//     local. The arena is single-owner per Unit and reclaimed by the
//     next top-level operation, so a concurrent holder races with the
//     owner's reuse.
//
// Copies sanitize: Clone()/copyRow results, make+copy, and any other
// call not known to return scratch storage carry no taint. Like
// rowalias, this is one forward pass over idiomatic code, not an escape
// analysis; silence a deliberate escape with a
// //coruscantvet:ignore scratchescape directive carrying a reason.
package scratchescape

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/analysis/vetutil"
)

// Name is the analyzer's name, as used in ignore directives.
const Name = "scratchescape"

var Analyzer = &analysis.Analyzer{
	Name:     Name,
	Doc:      "arena-backed scratch buffers must not escape the operation that acquired them",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1: seed the scratch* accessors and summarize unexported
	// helpers that hand their result straight back, so taint flows
	// through one level of same-package wrapping.
	scratchy := map[*types.Func]bool{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Name.IsExported() || fd.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		if isAccessorName(fn.Name()) {
			scratchy[fn] = true
			return
		}
		c := &checker{pass: pass, scratchy: scratchy}
		c.analyze(fd, func(*ast.ReturnStmt, ast.Expr) {
			scratchy[fn] = true
		}, nil)
	})

	// Pass 2: report escapes. Returns are diagnosed on exported
	// functions only (unexported returners became taint carriers above);
	// goroutine escapes are diagnosed everywhere, since no goroutine may
	// ever hold arena storage.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		c := &checker{pass: pass, scratchy: scratchy}
		var onReturn func(*ast.ReturnStmt, ast.Expr)
		if fd.Name.IsExported() {
			onReturn = func(_ *ast.ReturnStmt, res ast.Expr) {
				vetutil.Report(pass, Name, res.Pos(),
					"%s returns arena-backed scratch storage, which dies when the operation ends; return an owned copy (Clone / copyRow)",
					fd.Name.Name)
			}
		}
		c.analyze(fd, onReturn, func(pos ast.Node, what string) {
			vetutil.Report(pass, Name, pos.Pos(),
				"scratch storage %s escapes into a goroutine; the per-unit arena is single-owner and reclaimed by the next operation", what)
		})
	})
	return nil, nil
}

// isAccessorName reports whether name is one of the unexported arena
// accessors. The whole scratch* family is matched by prefix so a new
// accessor is covered the day it is added.
func isAccessorName(name string) bool {
	return !ast.IsExported(name) && strings.HasPrefix(name, "scratch")
}

// checker tracks, per function body, which locals hold scratch-backed
// storage.
type checker struct {
	pass     *analysis.Pass
	scratchy map[*types.Func]bool
	env      map[*types.Var]bool
}

// analyze walks fd's body in source order, calling onReturn for every
// scratch-tainted return expression and onGo for every scratch value
// that crosses into a go statement.
func (c *checker) analyze(fd *ast.FuncDecl, onReturn func(*ast.ReturnStmt, ast.Expr), onGo func(ast.Node, string)) {
	c.env = map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Deferred/inline closures share the operation's lifetime;
			// only the go-statement path below is an escape.
			return false
		case *ast.GoStmt:
			if onGo != nil {
				c.checkGo(n, onGo)
			}
			return false
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.ReturnStmt:
			if onReturn != nil {
				for _, res := range n.Results {
					if c.tainted(res) {
						onReturn(n, res)
					}
				}
			}
		}
		return true
	})
}

// assign propagates taint through simple assignments to identifiers;
// stores into fields or elements keep the storage inside the unit and
// need no tracking.
func (c *checker) assign(as *ast.AssignStmt) {
	if len(as.Rhs) != len(as.Lhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		t := c.tainted(as.Rhs[i])
		if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
			c.env[v] = t
		} else if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
			c.env[v] = t
		}
	}
}

// checkGo reports scratch storage crossing into a goroutine, whether
// passed as a call argument or captured by the spawned closure.
func (c *checker) checkGo(g *ast.GoStmt, onGo func(ast.Node, string)) {
	for _, arg := range g.Call.Args {
		if c.tainted(arg) {
			onGo(arg, describe(arg))
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	reported := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && c.env[v] && !reported[v] {
			reported[v] = true
			onGo(id, id.Name)
		}
		return true
	})
}

// tainted reports whether e's backing storage derives from a scratch
// accessor.
func (c *checker) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.tainted(e.X)
	case *ast.UnaryExpr:
		return c.tainted(e.X)
	case *ast.StarExpr:
		return c.tainted(e.X)
	case *ast.Ident:
		v, ok := c.pass.TypesInfo.Uses[e].(*types.Var)
		return ok && c.env[v]
	case *ast.SelectorExpr:
		// Words of a scratch row (or any field of a scratch-holding
		// value) share its backing storage.
		return c.tainted(e.X)
	case *ast.IndexExpr:
		return c.tainted(e.X)
	case *ast.SliceExpr:
		return c.tainted(e.X)
	case *ast.CompositeLit:
		// Row{Words: w} and Reduction{S: s}-style wrappers adopt the
		// storage of their elements.
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.tainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append keeps the backing array of its first argument.
		if id, ok := e.Fun.(*ast.Ident); ok {
			if bi, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return bi.Name() == "append" && len(e.Args) > 0 && c.tainted(e.Args[0])
			}
		}
		if fn := c.callee(e); fn != nil && (c.scratchy[fn] || isAccessorName(fn.Name())) {
			return true
		}
		// Every other call returns owned storage: Clone, copyRow,
		// make+copy wrappers and constructors all sanitize.
		return false
	default:
		return false
	}
}

// callee resolves the *types.Func a call invokes, if any.
func (c *checker) callee(e *ast.CallExpr) *types.Func {
	switch f := e.Fun.(type) {
	case *ast.Ident:
		fn, _ := c.pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		return c.callee(&ast.CallExpr{Fun: f.X})
	}
	return nil
}

// describe names an expression for the goroutine diagnostic.
func describe(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "value"
}
