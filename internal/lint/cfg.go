package lint

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive layer under the hot-path rules: a
// statement-level control-flow graph per function body, with natural-loop
// detection. The hot rules only ever ask one question of it — "how many
// loops enclose this position?" — which is what turns "defer in a hot
// function" into the much sharper "defer that accumulates once per
// iteration" and lets hotalloc say "inside a loop" when it matters.
//
// The builder decomposes compound statements (if/for/range/switch/select,
// labeled break/continue/goto) into basic blocks and edges; loop
// membership comes from the classical construction: a DFS finds back
// edges, and each back edge's natural loop is the header plus everything
// that reaches the edge's tail without passing through the header. A
// block's depth is the number of distinct loop headers whose loop
// contains it, so nesting sums naturally. Closure bodies are opaque here:
// a FuncLit is a leaf of its enclosing function's graph and gets a graph
// of its own, because a defer inside a closure unwinds at the closure's
// return, not the enclosing loop's.

// cfgBlock is one basic block: the leaf statements and header
// expressions anchored to it, its successor edges, and — after
// markLoops — its loop-nesting depth.
type cfgBlock struct {
	id    int
	nodes []ast.Node
	succs []*cfgBlock
	depth int
}

func (b *cfgBlock) add(n ast.Node) {
	if n != nil {
		b.nodes = append(b.nodes, n)
	}
}

// CFG is one function body's control-flow graph.
type CFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
	// headers maps the nodes anchored on behalf of a compound statement
	// — a select's comm clauses, a range's operand — to that statement.
	headers map[ast.Node]ast.Stmt
}

// buildCFG constructs the graph for one function or closure body.
func buildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{headers: map[ast.Node]ast.Stmt{}}
	b := &cfgBuilder{g: g, labels: map[string]*cfgBlock{}}
	g.entry = b.newBlock()
	b.stmtList(g.entry, body.List)
	b.resolveGotos()
	g.markLoops()
	return g
}

// LoopDepthAt reports how many loops enclose pos: the depth of the block
// holding the narrowest anchored node that spans pos, or 0 when pos is
// not inside this body.
func (g *CFG) LoopDepthAt(pos token.Pos) int {
	depth := 0
	bestSize := token.Pos(1) << 62
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			if n.Pos() <= pos && pos < n.End() {
				if size := n.End() - n.Pos(); size < bestSize {
					bestSize, depth = size, b.depth
				}
			}
		}
	}
	return depth
}

// locate finds the block and node index anchoring n, by node identity.
// The path-sensitive rules (lockhold, resleak) use it as the start of a
// forward walk. Returns (nil, 0) when n is not an anchored node — e.g. a
// statement nested inside another leaf — in which case callers stay
// silent rather than guess.
func (g *CFG) locate(n ast.Node) (*cfgBlock, int) {
	for _, b := range g.blocks {
		for i, m := range b.nodes {
			if m == n {
				return b, i
			}
		}
	}
	return nil, 0
}

// pathStep is a path visitor's verdict on one node.
type pathStep int

const (
	pathOn  pathStep = iota // keep walking this path
	pathEnd                 // this path is settled; the others go on
	walkEnd                 // the walk has its answer; stop everything
)

// walkForward is the forward path walk shared by the path-sensitive
// rules (lockhold, resleak): depth-first from node idx of blk, each
// block's nodes in order and its successors in construction order, so a
// reported path is deterministic. Every block is entered at most once,
// from its first node; the start block is not marked up front, so a back
// edge re-enters it from index 0 — each rule's visitor ends the path
// when it meets its own acquisition again. exit, when non-nil, is called
// where a path falls off the end of the unit (an implicit return), with
// the last node the walk visited in that block, or nil if none.
func (g *CFG) walkForward(blk *cfgBlock, idx int, visit func(ast.Node) pathStep, exit func(last ast.Node) pathStep) {
	entered := make([]bool, len(g.blocks))
	done := false
	var walk func(b *cfgBlock, start int)
	walk = func(b *cfgBlock, start int) {
		var last ast.Node
		for _, n := range b.nodes[start:] {
			last = n
			switch visit(n) {
			case pathEnd:
				return
			case walkEnd:
				done = true
				return
			}
		}
		if len(b.succs) == 0 {
			done = exit != nil && exit(last) == walkEnd
			return
		}
		for _, s := range b.succs {
			if done {
				return
			}
			if !entered[s.id] {
				entered[s.id] = true
				walk(s, 0)
			}
		}
	}
	walk(blk, idx)
}

// maxLoopDepth reports the deepest nesting anywhere in the body (tests).
func (g *CFG) maxLoopDepth() int {
	max := 0
	for _, b := range g.blocks {
		if b.depth > max {
			max = b.depth
		}
	}
	return max
}

// loopFrame is one enclosing breakable construct during the build.
// Loops accept both break and continue; switch/select frames only break.
type loopFrame struct {
	label   string
	breakTo *cfgBlock
	contTo  *cfgBlock
	isLoop  bool
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

type cfgBuilder struct {
	g      *CFG
	frames []loopFrame
	labels map[string]*cfgBlock
	gotos  []pendingGoto
	// pendingLabel names the loop/switch statement about to be built, so
	// labeled break/continue resolve to the right frame.
	pendingLabel string
	// fallTo is the next case block while building a switch clause.
	fallTo *cfgBlock
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// edge connects from to to; a nil from means the predecessor terminated
// (return/branch), so there is nothing to connect.
func edge(from, to *cfgBlock) {
	if from != nil && to != nil {
		from.succs = append(from.succs, to)
	}
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmtList(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt threads one statement through the graph and returns the block
// control falls out of, or nil when control never falls through.
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt) *cfgBlock {
	if cur == nil {
		// Unreachable code still gets blocks so position queries resolve.
		cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			cur.add(s.Init)
		}
		cur.add(s.Cond)
		join := b.newBlock()
		then := b.newBlock()
		edge(cur, then)
		edge(b.stmt(then, s.Body), join)
		if s.Else != nil {
			els := b.newBlock()
			edge(cur, els)
			edge(b.stmt(els, s.Else), join)
		} else {
			edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.add(s.Init)
		}
		header := b.newBlock()
		edge(cur, header)
		if s.Cond != nil {
			header.add(s.Cond)
		}
		exit := b.newBlock()
		if s.Cond != nil {
			edge(header, exit)
		}
		post := b.newBlock()
		if s.Post != nil {
			post.add(s.Post)
		}
		edge(post, header)
		body := b.newBlock()
		edge(header, body)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, contTo: post, isLoop: true})
		edge(b.stmt(body, s.Body), post)
		b.frames = b.frames[:len(b.frames)-1]
		return exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		cur.add(s.X) // the ranged expression is evaluated once, up front
		b.g.headers[s.X] = s
		header := b.newBlock()
		edge(cur, header)
		exit := b.newBlock()
		edge(header, exit)
		body := b.newBlock()
		edge(header, body)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, contTo: header, isLoop: true})
		edge(b.stmt(body, s.Body), header)
		b.frames = b.frames[:len(b.frames)-1]
		return exit

	case *ast.SwitchStmt:
		return b.switchLike(cur, s.Init, s.Tag, s.Body)

	case *ast.TypeSwitchStmt:
		return b.switchLike(cur, s.Init, nil, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		join := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			edge(cur, blk)
			if cc.Comm != nil {
				blk.add(cc.Comm)
				b.g.headers[cc.Comm] = s
			}
			edge(b.stmtList(blk, cc.Body), join)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			edge(cur, join)
		}
		return join

	case *ast.LabeledStmt:
		lb := b.newBlock()
		edge(cur, lb)
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		out := b.stmt(lb, s.Stmt)
		b.pendingLabel = ""
		return out

	case *ast.BranchStmt:
		cur.add(s)
		switch s.Tok {
		case token.BREAK:
			edge(cur, b.frameTarget(s.Label, false))
		case token.CONTINUE:
			edge(cur, b.frameTarget(s.Label, true))
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{cur, s.Label.Name})
			}
		case token.FALLTHROUGH:
			edge(cur, b.fallTo)
		}
		return nil

	case *ast.ReturnStmt:
		cur.add(s)
		return nil

	default:
		cur.add(s)
		return cur
	}
}

// switchLike builds expression and type switches: every clause hangs off
// the header, fallthrough edges to the next clause, and a missing default
// lets the header fall straight to the join.
func (b *cfgBuilder) switchLike(cur *cfgBlock, init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) *cfgBlock {
	label := b.takeLabel()
	if init != nil {
		cur.add(init)
	}
	if tag != nil {
		cur.add(tag)
	}
	join := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: join})
	clauses := body.List
	blocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock()
		edge(cur, blocks[i])
	}
	savedFall := b.fallTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			blocks[i].add(e)
		}
		b.fallTo = nil
		if i+1 < len(clauses) {
			b.fallTo = blocks[i+1]
		}
		edge(b.stmtList(blocks[i], cc.Body), join)
	}
	b.fallTo = savedFall
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		edge(cur, join)
	}
	return join
}

// frameTarget resolves a break/continue to its frame's target block.
func (b *cfgBuilder) frameTarget(label *ast.Ident, isContinue bool) *cfgBlock {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isContinue && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			if isContinue {
				return f.contTo
			}
			return f.breakTo
		}
	}
	return nil
}

func (b *cfgBuilder) resolveGotos() {
	for _, pg := range b.gotos {
		edge(pg.from, b.labels[pg.label])
	}
}

// markLoops finds back edges by DFS and assigns each block its
// natural-loop nesting depth.
func (g *CFG) markLoops() {
	const (
		unvisited = iota
		onStack
		done
	)
	state := make([]int, len(g.blocks))
	type backEdge struct{ from, to *cfgBlock }
	var backs []backEdge
	var dfs func(b *cfgBlock)
	dfs = func(b *cfgBlock) {
		state[b.id] = onStack
		for _, s := range b.succs {
			switch state[s.id] {
			case unvisited:
				dfs(s)
			case onStack:
				backs = append(backs, backEdge{b, s})
			}
		}
		state[b.id] = done
	}
	dfs(g.entry)

	preds := make([][]*cfgBlock, len(g.blocks))
	for _, b := range g.blocks {
		for _, s := range b.succs {
			preds[s.id] = append(preds[s.id], b)
		}
	}

	// One loop per header: the union of its back edges' natural loops.
	// Depth increments are commutative, so header order is irrelevant.
	loops := map[*cfgBlock]map[int]bool{}
	for _, be := range backs {
		set := loops[be.to]
		if set == nil {
			set = map[int]bool{be.to.id: true}
			loops[be.to] = set
		}
		var stack []*cfgBlock
		if !set[be.from.id] {
			set[be.from.id] = true
			stack = append(stack, be.from)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range preds[n.id] {
				if !set[p.id] {
					set[p.id] = true
					stack = append(stack, p)
				}
			}
		}
	}
	for _, set := range loops {
		for id := range set {
			g.blocks[id].depth++
		}
	}
}

// innermostFuncNode returns the narrowest FuncDecl/FuncLit containing
// pos, so loop depth is always measured within the right body — a defer
// inside a closure unwinds at the closure's return, not its definer's.
func innermostFuncNode(decl *ast.FuncDecl, pos token.Pos) ast.Node {
	var best ast.Node = decl
	bestSize := decl.End() - decl.Pos()
	ast.Inspect(decl, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if lit.Pos() <= pos && pos < lit.End() {
			if size := lit.End() - lit.Pos(); size < bestSize {
				best, bestSize = lit, size
			}
		}
		return true
	})
	return best
}

// bodyOf extracts the body of a function-like node.
func bodyOf(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}
