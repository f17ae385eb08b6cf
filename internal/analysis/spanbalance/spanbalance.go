// Package spanbalance defines a flow-sensitive analyzer enforcing the
// telemetry recorder contract: every span opened in non-test code must
// be closed on every control-flow path out of the function — including
// early returns and panic exits.
//
// The recorder keeps a per-source span stack; an unclosed span skews
// every enclosing duration and every later span on that source. The
// safe idiom is `defer rec.Span(src, name)()`; this analyzer exists for
// the places that cannot use it and thread the closer by hand.
//
// Two opener shapes are recognized structurally (so the self-contained
// fixtures work like the production types):
//
//   - a method named Span returning exactly func() — the closer must be
//     invoked, deferred, returned, or otherwise escape on every path;
//   - a method named Begin on a type that also has an End method — an
//     End call (or a deferred End) must follow on every path.
//
// Balance is checked over the ctrlflow CFG, so loops, early returns and
// no-return calls (panic, log.Fatal) are all walked precisely.
package spanbalance

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"golang.org/x/tools/go/analysis/passes/inspect"

	"repro/internal/analysis/vetutil"
)

// Name is the analyzer's name, as used in ignore directives.
const Name = "spanbalance"

var Analyzer = &analysis.Analyzer{
	Name:     Name,
	Doc:      "telemetry spans must be closed on every control-flow path (recorder span stacks are per-source; a leaked closer skews every enclosing duration)",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var g *cfg.CFG
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			g = cfgs.FuncDecl(fn)
		case *ast.FuncLit:
			g = cfgs.FuncLit(fn)
		}
		if g != nil {
			checkFunc(pass, g)
		}
	})
	return nil, nil
}

// checkFunc finds every span opener in the function's CFG and verifies
// each one is balanced along all paths from its program point.
func checkFunc(pass *analysis.Pass, g *cfg.CFG) {
	for _, b := range g.Blocks {
		if !b.Live {
			continue
		}
		for i, node := range b.Nodes {
			for _, op := range openersIn(pass, node) {
				checkOpener(pass, g, b, i, node, op)
			}
		}
	}
}

// opener is one span-opening call found inside a CFG node.
type opener struct {
	call  *ast.CallExpr
	span  bool         // Span-returning-closer shape (vs Begin/End)
	recv  types.Type   // receiver type, for End matching
	fnPos ast.Node     // the syntactic context the call appears in
	obj   types.Object // closer variable, when bound to one
}

// openersIn returns the span openers contained in one CFG node,
// classified by syntactic context. Openers whose closer escapes
// immediately — returned, passed to a call, immediately deferred as
// `defer Span(...)()` — are not returned: they are balanced by
// construction or become the caller's responsibility.
func openersIn(pass *analysis.Pass, node ast.Node) []opener {
	var out []opener
	switch s := node.(type) {
	case *ast.DeferStmt:
		if isSpanCall(pass, s.Call) {
			// `defer rec.Span(x)` without the trailing (): the opener
			// runs at exit and its closer is dropped on the floor.
			out = append(out, opener{call: s.Call, span: true, fnPos: s})
		}
		// `defer rec.Span(x)()` (s.Call.Fun is the opener) is the safe
		// idiom; `defer r.End(..)`/`defer done()` are consumptions seen
		// by the path walk, not openers.
		return out
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isSpanCall(pass, call) {
				// Closer produced and immediately discarded.
				out = append(out, opener{call: call, span: true, fnPos: s})
			} else if rt, ok := isBeginCall(pass, call); ok {
				out = append(out, opener{call: call, recv: rt, fnPos: s})
			}
		}
		return out
	case *ast.AssignStmt:
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isSpanCall(pass, call) {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil {
						out = append(out, opener{call: call, span: true, obj: obj, fnPos: s})
						return out
					}
				}
			}
		}
	case *ast.ValueSpec:
		if len(s.Names) == 1 && len(s.Values) == 1 {
			if call, ok := s.Values[0].(*ast.CallExpr); ok && isSpanCall(pass, call) {
				if obj := pass.TypesInfo.Defs[s.Names[0]]; obj != nil {
					out = append(out, opener{call: call, span: true, obj: obj, fnPos: s})
					return out
				}
			}
		}
	}
	// Bare Begin calls may also hide inside other statements
	// (e.g. `if cond { r.Begin(..) }` puts the call in an ExprStmt,
	// already handled; Begin used as an expression cannot occur — it
	// has no results). Span calls in any other position (return value,
	// call argument, composite literal) escape and are the consumer's
	// responsibility.
	return out
}

// isSpanCall reports whether call invokes a method named Span on some
// receiver returning exactly `func()` — the telemetry closer shape.
func isSpanCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := callee(pass, call)
	if fn == nil || fn.Name() != "Span" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	return ok && res.Params().Len() == 0 && res.Results().Len() == 0
}

// isBeginCall reports whether call invokes a method named Begin on a
// type that also has an End method, returning that receiver type.
func isBeginCall(pass *analysis.Pass, call *ast.CallExpr) (types.Type, bool) {
	fn := callee(pass, call)
	if fn == nil || fn.Name() != "Begin" {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	rt := sig.Recv().Type()
	if !hasMethod(rt, "End") {
		return nil, false
	}
	return rt, true
}

func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

func hasMethod(t types.Type, name string) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// checkOpener walks every CFG path from the opener's program point and
// reports if some path reaches a function exit (return or no-return
// call such as panic) with the span still open.
func checkOpener(pass *analysis.Pass, g *cfg.CFG, b *cfg.Block, idx int, node ast.Node, op opener) {
	if op.span && op.obj == nil {
		// Discarded closer (`rec.Span(x)` as a statement) or a deferred
		// opener (`defer rec.Span(x)`): unbalanced by construction.
		vetutil.Report(pass, Name, op.call.Pos(),
			"span closer is dropped: call it, defer it (`defer ...Span(...)()`), or bind it")
		return
	}

	// The opener's own statement may also consume it (e.g. a
	// self-contained `done := span(); done()` rewritten by gofmt onto
	// one line is impossible in Go, so start strictly after).
	visited := make(map[int32]bool)
	var walk func(blk *cfg.Block, from int) bool
	walk = func(blk *cfg.Block, from int) bool {
		for i := from; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if op.span {
				switch consume(pass, n, op.obj) {
				case consumed:
					return true
				case killed:
					vetutil.Report(pass, Name, n.Pos(),
						"span closer reassigned before being called; the open span leaks")
					return true // don't double-report the exit paths
				}
			} else if endsSpan(pass, n, op.recv) {
				return true
			}
		}
		if len(blk.Succs) == 0 {
			return false // exit reached, still open
		}
		for _, s := range blk.Succs {
			if visited[s.Index] {
				continue
			}
			visited[s.Index] = true
			if !walk(s, 0) {
				return false
			}
		}
		return true
	}
	if !walk(b, idx+1) {
		if op.span {
			vetutil.Report(pass, Name, op.call.Pos(),
				"span closer is not called on every path to return/panic; use `defer ...Span(...)()`")
		} else {
			vetutil.Report(pass, Name, op.call.Pos(),
				"Begin without a matching End on every path to return/panic")
		}
	}
}

type consumption int

const (
	untouched consumption = iota
	consumed
	killed
)

// consume classifies what one CFG node does with the closer variable:
// any appearance of the variable — a call, a defer, a return, an
// argument, a capture by a closure — counts as consumption (the closer
// escaped to something responsible for it), except a plain reassignment
// that overwrites the closer before any use, which kills it.
func consume(pass *analysis.Pass, n ast.Node, obj types.Object) consumption {
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			// Overwritten. Uses on the RHS (e.g. `done = wrap(done)`)
			// still count as consumption first.
			for _, rhs := range as.Rhs {
				if usesObj(pass, rhs, obj) {
					return consumed
				}
			}
			return killed
		}
	}
	if usesObj(pass, n, obj) {
		return consumed
	}
	return untouched
}

func usesObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// endsSpan reports whether the node contains a call to an End method on
// the given receiver type (including inside a defer or a closure that
// escapes through this node).
func endsSpan(pass *analysis.Pass, n ast.Node, recv types.Type) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := callee(pass, call)
		if fn == nil || fn.Name() != "End" {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() != nil && types.Identical(sig.Recv().Type(), recv) {
			found = true
		}
		return !found
	})
	return found
}
