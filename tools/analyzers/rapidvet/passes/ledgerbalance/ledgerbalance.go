// Package ledgerbalance checks that every job the queue booked memory
// for, and every queue-slot reservation, is discharged on every exit path.
// The daemon's capacity accounting is a two-sided ledger: a job booked
// with wfqueue.book must give its units back through release, or the
// machine budget leaks until restart and the queue eventually books
// nothing; slots taken with wfqueue.reserve participate in the two-phase
// reserve → journal-append → commit/abort protocol, and a reservation
// that is neither committed nor aborted permanently shrinks the queue
// (the shedding math assumes reserved slots always resolve).
//
// Obligation sites are matched by the ledger vocabulary — a call to a
// method named book opens a release obligation on its receiver
// expression; reserve opens a commit-or-abort obligation — so corpora can
// define local lookalike types. The walk is path-sensitive over the
// function body:
//
//   - book reports whether the job holds a booking: `if !q.book(j) {
//     ... }` holds it only in the else branch and after the if, `if
//     q.book(j) { ... }` only in the then branch, and `ok := q.book(j)`
//     binds it to ok, whose `if !ok { ... }` branch holds nothing;
//   - `if !ok { ... }` after `slot, ok := q.reserve(...)` likewise;
//   - release/commit/abort on the same receiver — called directly or
//     deferred — discharges from that point on (defer also covers
//     panics);
//   - a return, an explicit panic, or falling off the end of the
//     function with an open obligation is a leak, reported at the
//     acquisition site.
//
// The implementation type itself (receiver type wfqueue) is skipped: the
// ledger's internals legitimately compose their own primitives.
package ledgerbalance

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"sort"

	"repro/tools/analyzers/rapidvet/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ledgerbalance",
	Doc: "every job the queue booked must be released and every queue reserve committed or aborted on every " +
		"exit path (including early returns and panics); an unbalanced ledger leaks capacity until restart",
	DefaultPackages: []string{
		"internal/rapidd",
	},
	Run: run,
}

// implReceivers are the ledger implementations; their own methods
// compose book/release internals and are not call sites.
var implReceivers = map[string]bool{"wfqueue": true}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Recv != nil && len(fn.Recv.List) > 0 && implReceivers[receiverTypeName(fn.Recv.List[0].Type)] {
				continue
			}
			w := &walker{pass: pass, leakAt: map[token.Pos]token.Pos{}}
			w.walkFunc(fn.Body)
			w.report()
		}
	}
	return nil, nil
}

func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return receiverTypeName(e.X)
	}
	return ""
}

// obligation is one open ledger debt.
type obligation struct {
	key    string // rendered receiver, e.g. "s.queue"
	kind   string // "book" (needs release) or "reserve" (needs commit/abort)
	pos    token.Pos
	errVar string // error result: its != nil branch cancels
	okVar  string // bool result: its !ok branch cancels
}

// state maps receiver key -> open obligation for one path.
type state map[string]*obligation

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

// union keeps an obligation open if it is open on any continuing path.
func union(a, b state) state {
	out := a.clone()
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// replace overwrites st's contents with src (st is shared by reference).
func replace(st, src state) {
	for k := range st {
		delete(st, k)
	}
	for k, v := range src {
		st[k] = v
	}
}

type walker struct {
	pass   *analysis.Pass
	leakAt map[token.Pos]token.Pos // acquisition pos -> first leaking exit
	obs    []*obligation           // every obligation seen, for ordered reporting
}

// walkFunc analyses one function body; nested function literals are
// independent scopes (their obligations balance internally).
func (w *walker) walkFunc(body *ast.BlockStmt) {
	st := make(state)
	if terminated := w.walkStmts(body.List, st); !terminated {
		w.exit(st, body.Rbrace)
	}
}

func (w *walker) report() {
	sort.Slice(w.obs, func(i, j int) bool { return w.obs[i].pos < w.obs[j].pos })
	for _, o := range w.obs {
		leak, ok := w.leakAt[o.pos]
		if !ok {
			continue
		}
		where := w.pass.Fset.Position(leak)
		switch o.kind {
		case "book":
			w.pass.Reportf(o.pos, "a job booked by %s is not released on every path (exit at line %d leaks its units): call %s.release on each exit, or defer it — leaked units shrink the machine budget until restart", o.key, where.Line, o.key)
		case "reserve":
			w.pass.Reportf(o.pos, "queue slot reserved from %s is neither committed nor aborted on every path (exit at line %d leaks it): the two-phase reserve→journal→commit protocol requires %s.commit on success and %s.abort on failure", o.key, where.Line, o.key, o.key)
		}
	}
}

// exit records every open obligation as leaking at pos.
func (w *walker) exit(st state, pos token.Pos) {
	for _, o := range st {
		if _, seen := w.leakAt[o.pos]; !seen {
			w.leakAt[o.pos] = pos
		}
	}
}

// walkStmts returns true if the statement list terminates the function
// on every path through it.
func (w *walker) walkStmts(stmts []ast.Stmt, st state) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(s ast.Stmt, st state) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.handleAssign(s, st)
	case *ast.ExprStmt:
		if isPanic(s.X) {
			w.exit(st, s.Pos())
			return true
		}
		w.handleCallExpr(s.X, st)
	case *ast.DeferStmt:
		w.discharge(s.Call, st)
		w.scanFuncLits(s.Call)
	case *ast.ReturnStmt:
		w.scanFuncLits(s)
		w.exit(st, s.Pos())
		return true
	case *ast.IfStmt:
		return w.walkIf(s, st)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.ForStmt, *ast.RangeStmt:
		var body *ast.BlockStmt
		if f, ok := s.(*ast.ForStmt); ok {
			if f.Init != nil {
				w.walkStmt(f.Init, st)
			}
			body = f.Body
		} else {
			body = s.(*ast.RangeStmt).Body
		}
		after := st.clone()
		w.walkStmts(body.List, after)
		// The loop may run zero or more times: keep an obligation open if
		// it is open on either shape.
		replace(st, union(st, after))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		return w.walkClauses(caseBodies(s.Body), hasDefaultCase(s.Body), st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		return w.walkClauses(caseBodies(s.Body), hasDefaultCase(s.Body), st)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		// A select always takes some clause, so it is exhaustive.
		return w.walkClauses(bodies, true, st)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkFunc(lit.Body)
		}
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	}
	return false
}

// walkIf handles guard-branch cancellation and branch-state merging.
func (w *walker) walkIf(s *ast.IfStmt, st state) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, st)
	}
	thenSt, elseSt := st.clone(), st.clone()
	w.applyCondCancellation(s.Cond, thenSt, elseSt)
	w.openCondObligation(s.Cond, thenSt, elseSt)

	thenTerm := w.walkStmts(s.Body.List, thenSt)
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.walkStmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && s.Else != nil && elseTerm:
		return true
	case thenTerm:
		replace(st, elseSt)
	case s.Else != nil && elseTerm:
		replace(st, thenSt)
	default:
		replace(st, union(thenSt, elseSt))
	}
	return false
}

// walkClauses merges switch/select clause states.
func (w *walker) walkClauses(bodies [][]ast.Stmt, exhaustive bool, st state) bool {
	if len(bodies) == 0 {
		return false
	}
	allTerm := true
	var continuing []state
	for _, body := range bodies {
		branch := st.clone()
		if w.walkStmts(body, branch) {
			continue
		}
		allTerm = false
		continuing = append(continuing, branch)
	}
	if allTerm && exhaustive {
		return true
	}
	merged := st.clone() // the not-taken shape, for non-exhaustive switches
	if exhaustive {
		merged = make(state)
	}
	for _, c := range continuing {
		merged = union(merged, c)
	}
	replace(st, merged)
	return false
}

// applyCondCancellation removes obligations whose failure guard the
// condition tests: inside `if err != nil` the reserve failed and holds
// nothing; inside `if !ok` the reserve or the book did.
func (w *walker) applyCondCancellation(cond ast.Expr, thenSt, elseSt state) {
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		id, ok := c.X.(*ast.Ident)
		if !ok || !isNilIdent(c.Y) {
			return
		}
		switch c.Op {
		case token.NEQ: // err != nil: failure in then-branch
			cancelVar(thenSt, id.Name, "err")
		case token.EQL: // err == nil: failure in else-branch
			cancelVar(elseSt, id.Name, "err")
		}
	case *ast.UnaryExpr: // !ok: failure in then-branch
		if c.Op == token.NOT {
			if id, ok := c.X.(*ast.Ident); ok {
				cancelVar(thenSt, id.Name, "ok")
			}
		}
	case *ast.Ident: // if ok: failure in else-branch
		cancelVar(elseSt, c.Name, "ok")
	}
}

// openCondObligation opens the obligation of a book call the condition
// tests, on the branch where it booked: `if !q.book(j)` books in the
// else branch, `if q.book(j)` in the then branch.
func (w *walker) openCondObligation(cond ast.Expr, thenSt, elseSt state) {
	booked := thenSt
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, booked = u.X, elseSt
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return
	}
	key, kind, ok := obligationCall(call)
	if !ok {
		return
	}
	o := &obligation{key: key, kind: kind, pos: call.Pos()}
	booked[key] = o
	w.obs = append(w.obs, o)
}

// unbindVar detaches a reassigned guard variable from open obligations.
// Obligation structs are shared across branch clones, so the map entry
// is replaced with an unbound copy instead of being mutated in place.
func unbindVar(st state, name string) {
	if name == "_" || name == "" {
		return
	}
	for k, o := range st {
		if o.errVar == name || o.okVar == name {
			c := *o
			if c.errVar == name {
				c.errVar = ""
			}
			if c.okVar == name {
				c.okVar = ""
			}
			st[k] = &c
		}
	}
}

func cancelVar(st state, name, class string) {
	for k, o := range st {
		if (class == "err" && o.errVar == name) || (class == "ok" && o.okVar == name) {
			delete(st, k)
		}
	}
}

// handleAssign opens obligations for book/reserve assignments and
// records which result variables guard them.
func (w *walker) handleAssign(s *ast.AssignStmt, st state) {
	w.scanFuncLits(s)
	// Any write to a variable unbinds it from earlier obligations: after
	// `err := journal()`, a subsequent `if err != nil` guards the journal
	// call, not the reserve whose error the name used to hold.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			unbindVar(st, id.Name)
		}
	}
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	key, kind, ok := obligationCall(call)
	if !ok {
		w.dischargeCall(call, st)
		return
	}
	o := &obligation{key: key, kind: kind, pos: call.Pos()}
	switch kind {
	case "book": // ok := q.book(j)
		if len(s.Lhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				o.okVar = id.Name
			}
		}
	case "reserve": // slot, ok := q.reserve(...) or slot, err := ...
		if len(s.Lhs) == 2 {
			if id, ok := s.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				// Distinguish bool-vs-error by name convention; either way
				// the guard branch idiom cancels it.
				if id.Name == "err" {
					o.errVar = id.Name
				} else {
					o.okVar = id.Name
				}
			}
		}
	}
	st[key] = o
	w.obs = append(w.obs, o)
}

// handleCallExpr covers bare-statement calls: a book whose result is
// dropped still opens the obligation; release/commit/abort discharge.
func (w *walker) handleCallExpr(e ast.Expr, st state) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	w.scanFuncLits(call)
	if key, kind, ok := obligationCall(call); ok {
		o := &obligation{key: key, kind: kind, pos: call.Pos()}
		st[key] = o
		w.obs = append(w.obs, o)
		return
	}
	w.dischargeCall(call, st)
}

func (w *walker) discharge(call *ast.CallExpr, st state) {
	w.dischargeCall(call, st)
}

func (w *walker) dischargeCall(call *ast.CallExpr, st state) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := render(sel.X)
	o, open := st[key]
	if !open {
		return
	}
	switch sel.Sel.Name {
	case "release", "Release":
		if o.kind == "book" {
			delete(st, key)
		}
	case "commit", "abort", "Commit", "Abort":
		if o.kind == "reserve" {
			delete(st, key)
		}
	}
}

// obligationCall matches the ledger vocabulary.
func obligationCall(call *ast.CallExpr) (key, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "book", "Book":
		return render(sel.X), "book", true
	case "reserve", "Reserve":
		return render(sel.X), "reserve", true
	}
	return "", "", false
}

// scanFuncLits analyses function literals nested in a statement or
// expression as independent scopes.
func (w *walker) scanFuncLits(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.walkFunc(lit.Body)
			return false
		}
		return true
	})
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// caseBodies extracts switch clause bodies.
func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// render prints an expression compactly for obligation keys.
func render(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
