// Package lockorder defines a flow-sensitive analyzer enforcing the
// striped-locking discipline of the memory engine:
//
//   - multi-DBC lock sets must be acquired through the ordered
//     multi-lock helper (lockInto, released by unlockShards), never as
//     direct .mu.Lock() pairs — two goroutines pairing shards in
//     opposite orders deadlock;
//   - the cfg-class mutexes (cfgMu, tableMu) are ordered BEFORE the
//     per-shard mutexes: acquiring one while a shard lock is held —
//     directly, or by calling a function that locks one — inverts the
//     order against every Lock-cfg-then-shard path in the package.
//
// Classes are anchored structurally so the self-contained fixtures
// work like the production types: a shard lock is the `mu` field of a
// struct type named `shard`; a cfg-class lock is any field named
// `cfgMu` or `tableMu`. The check walks the ctrlflow CFG tracking how
// many shard locks each path holds; the call check uses a package-local
// transitive summary of which functions acquire cfg-class mutexes.
// lockInto and unlockShards are recognised by name, like the lock
// classes, so the fixtures' replicas are checked as the engine's are;
// every request path in the engine, single or batched, locks through
// them.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/vetutil"
)

// Name is the analyzer's name, as used in ignore directives.
const Name = "lockorder"

var Analyzer = &analysis.Analyzer{
	Name:     Name,
	Doc:      "striped-lock discipline: multi-shard acquisition goes through lockInto (released by unlockShards), and cfg-class mutexes (cfgMu/tableMu) are never acquired while a shard lock is held",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// cfgMutexFields are the coarse attachment/table mutexes that order
// before every shard mutex.
var cfgMutexFields = map[string]bool{"cfgMu": true, "tableMu": true}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	locksCfg := cfgLockSummaries(pass, ins)

	reported := map[token.Pos]bool{}
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
			checkFunc(pass, g, locksCfg, reported)
		}
	})
	return nil, nil
}

// cfgLockSummaries computes, transitively over the package's static
// call graph, which functions acquire a cfg-class mutex. Nested
// function literals are excluded: a closure that locks runs when
// invoked, not when its maker is called.
func cfgLockSummaries(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Func]bool {
	direct := map[*types.Func]bool{}
	calls := map[*types.Func][]*types.Func{}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok || decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, _ := lockEvent(pass, call); kind == evLockCfg {
				direct[fn] = true
			}
			if callee := typeutil.StaticCallee(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
				calls[fn] = append(calls[fn], callee)
			}
			return true
		})
	})

	// Propagate to callers until fixpoint.
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if direct[fn] {
				continue
			}
			for _, c := range callees {
				if direct[c] {
					direct[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return direct
}

type eventKind int

const (
	evNone eventKind = iota
	evLockShard
	evUnlockShard
	evLockCfg
	evLockSet   // lockInto: an ordered multi-shard acquisition
	evUnlockSet // unlockShards: releases a lockInto set
)

// lockEvent classifies a call as one of the lock-state transitions. The
// second result is the mutex field name for diagnostics.
func lockEvent(pass *analysis.Pass, call *ast.CallExpr) (eventKind, string) {
	if fn := typeutil.StaticCallee(pass.TypesInfo, call); fn != nil {
		switch fn.Name() {
		case "lockInto":
			return evLockSet, ""
		case "unlockShards":
			return evUnlockSet, ""
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return evNone, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return evNone, ""
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return evNone, ""
	}
	locking := sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock"
	if cfgMutexFields[field.Sel.Name] {
		if locking {
			return evLockCfg, field.Sel.Name
		}
		return evNone, ""
	}
	if field.Sel.Name == "mu" && isShardExpr(pass, field.X) {
		if locking {
			return evLockShard, "mu"
		}
		return evUnlockShard, "mu"
	}
	return evNone, ""
}

// isShardExpr reports whether e has the striped-shard type: a (pointer
// to a) struct named `shard` with a `mu` field.
func isShardExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "shard" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "mu" {
			return true
		}
	}
	return false
}

// lockState is one path's shard-lock footprint: how many direct shard
// locks are held (capped — loops would otherwise grow it without
// bound), and whether a lockInto set is held.
type lockState struct {
	count   int
	ordered bool
	// errObj is lockInto's error result: on the branch where it is
	// non-nil, the helper acquired nothing.
	errObj types.Object
}

func (s lockState) held() bool { return s.count > 0 || s.ordered }

func (s lockState) key(block int32) [4]int32 {
	ord := int32(0)
	if s.ordered {
		ord = 1
	}
	return [4]int32{block, int32(min(s.count, 2)), ord, 0}
}

// checkFunc walks the CFG from the entry block, threading the
// shard-lock state through every path and reporting order violations.
func checkFunc(pass *analysis.Pass, g *cfg.CFG, locksCfg map[*types.Func]bool, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...interface{}) {
		if !reported[pos] {
			reported[pos] = true
			vetutil.Report(pass, Name, pos, format, args...)
		}
	}

	visited := map[[4]int32]bool{}
	var walk func(b *cfg.Block, st lockState)
	walk = func(b *cfg.Block, st lockState) {
		for _, node := range b.Nodes {
			st = transfer(pass, node, st, locksCfg, report)
		}
		for i, s := range b.Succs {
			next := st
			// `shards, err := m.lockInto(...)` followed by an
			// `if err != nil` early-out: on the error branch the helper
			// acquired nothing, so the ordered set is not held there.
			if next.errObj != nil && len(b.Succs) == 2 && errBranchTaken(pass, b, next.errObj, i) {
				next.ordered = false
				next.errObj = nil
			}
			k := next.key(s.Index)
			if visited[k] {
				continue
			}
			visited[k] = true
			walk(s, next)
		}
	}
	if len(g.Blocks) > 0 {
		walk(g.Blocks[0], lockState{})
	}
}

// errBranchTaken reports whether successor branch takes the path where
// errObj is known non-nil: the block must end in an `errObj != nil`
// (branch 0) or `errObj == nil` (branch 1) condition. go/cfg orders an
// if statement's successors as [then, else].
func errBranchTaken(pass *analysis.Pass, b *cfg.Block, errObj types.Object, branch int) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	bin, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr)
	if !ok {
		return false
	}
	x, y := bin.X, bin.Y
	if isNilIdent(pass, x) {
		x, y = y, x
	}
	id, ok := x.(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != errObj || !isNilIdent(pass, y) {
		return false
	}
	switch bin.Op {
	case token.NEQ:
		return branch == 0
	case token.EQL:
		return branch == 1
	}
	return false
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNil
}

// transfer applies one CFG node's lock events to the path state.
// Events inside defers and nested function literals are skipped: a
// deferred Unlock runs at exit (the lock is held for the rest of the
// function), and a closure's locks happen when it is invoked.
func transfer(pass *analysis.Pass, node ast.Node, st lockState, locksCfg map[*types.Func]bool, report func(token.Pos, string, ...interface{})) lockState {
	if _, ok := node.(*ast.DeferStmt); ok {
		return st
	}

	// Bind the error result of `shards, err := m.lockInto(...)`.
	if as, ok := node.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && len(as.Lhs) == 2 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if kind, _ := lockEvent(pass, call); kind == evLockSet {
				st.errObj = nil
				if id, ok := as.Lhs[1].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						st.errObj = obj
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						st.errObj = obj
					}
				}
			}
		}
	}

	ast.Inspect(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			kind, field := lockEvent(pass, m)
			switch kind {
			case evLockShard:
				if st.held() {
					report(m.Pos(),
						"second shard lock acquired directly while one is already held; acquire multi-DBC lock sets through lockInto")
				}
				st.count++
			case evUnlockShard:
				st.count = max(0, st.count-1)
			case evLockSet:
				if st.held() {
					report(m.Pos(),
						"lockInto called while a shard lock is already held; merge the lock sets into one lockInto call")
				}
				st.ordered = true
			case evUnlockSet:
				st.ordered, st.errObj = false, nil
			case evLockCfg:
				if st.held() {
					report(m.Pos(),
						"cfg-class mutex %s acquired while a shard lock is held; cfg-class mutexes order before shard locks", field)
				}
			case evNone:
				if st.held() {
					if fn := typeutil.StaticCallee(pass.TypesInfo, m); fn != nil && locksCfg[fn] {
						report(m.Pos(),
							"%s acquires a cfg-class mutex (cfgMu/tableMu) and is called while a shard lock is held; call it before taking shard locks", fn.Name())
					}
				}
			}
		}
		return true
	})
	return st
}
