// Package guardedby checks `// guarded-by: <mutex>` field annotations:
// every access to an annotated struct field must happen while the named
// sibling mutex is held. The runtime's hot structs — the admission
// ledger, the weighted-fair queue, the health state machine, the journal
// — all follow the same convention: a single sync.Mutex guards a cluster
// of fields, public methods take the lock, and internal helpers that
// expect the lock already held carry a *Locked name suffix. This
// analyzer makes the convention checkable: annotate the fields once and
// every new call path that forgets the lock (or forgets the suffix that
// documents the caller's obligation) is flagged.
//
// Rules:
//
//   - a field whose declaration carries a trailing `// guarded-by: mu`
//     comment may be read or written only when "<base>.mu" is held,
//     where <base> is the expression the field is selected from
//     (s.inUse needs s.mu; s.adm.inUse needs s.adm.mu);
//   - X.Lock()/X.RLock() adds X to the held set; X.Unlock()/X.RUnlock()
//     removes it; defer X.Unlock() keeps it held to function end;
//   - a method whose name ends in Locked is assumed to be called with
//     every guard of its receiver's annotated fields held (the suffix is
//     trusted, not verified — it documents the caller's obligation);
//   - locals initialised in-function from a composite literal or new()
//     are fresh: nothing else can see them yet, so their fields are
//     accessible unlocked (constructors);
//   - a `go func(){...}` body starts with nothing held — the goroutine
//     outlives the spawning critical section. Other function literals
//     inherit the held set at their definition point (defer-unlock
//     epilogues run where they are written).
//
// Held-ness is tracked per branch: a lock taken inside an if-branch is
// not considered held after the branch joins.
package guardedby

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/analyzers/rapidvet/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "enforce `// guarded-by: mu` field annotations: annotated fields may only be touched with the " +
		"named mutex held, reached via a locking public method or a *Locked-suffixed helper",
	DefaultPackages: []string{
		"internal/rapidd",
		"internal/journal",
		"internal/exec",
	},
	Run: run,
}

const marker = "guarded-by:"

// annotations maps the *types.Var of each annotated field to its guard
// mutex field name.
type annotations map[*types.Var]string

func run(pass *analysis.Pass) (any, error) {
	ann := collectAnnotations(pass)
	if len(ann) == 0 {
		return nil, nil
	}
	// Guard/field shapes per struct type name, for seeding *Locked methods.
	shapes := collectShapes(pass)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &walker{pass: pass, ann: ann}
			st := newState()
			seedReceiverGuards(fn, shapes, st)
			w.walkStmts(fn.Body.List, st)
		}
	}
	return nil, nil
}

// collectAnnotations finds `// guarded-by: mu` trailing comments on
// struct fields and resolves each to its field object.
func collectAnnotations(pass *analysis.Pass) annotations {
	ann := make(annotations)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard, ok := fieldGuard(field)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						ann[v] = guard
					}
				}
			}
			return true
		})
	}
	return ann
}

// typeShape is what *Locked seeding needs to know about a struct: the
// guard names of its own annotated fields, and its struct-typed fields
// (so a Locked method on the outer type holds the inner guards too: a
// server.setHealthLocked is entered with s.health.mu held, as in the
// testdata corpus).
type typeShape struct {
	guards []string
	fields map[string]string // field name -> field type name
}

// collectShapes maps struct type name -> its guard/field shape.
func collectShapes(pass *analysis.Pass) map[string]*typeShape {
	out := make(map[string]*typeShape)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			shape := &typeShape{fields: map[string]string{}}
			seen := map[string]bool{}
			for _, field := range st.Fields.List {
				if guard, ok := fieldGuard(field); ok && !seen[guard] {
					seen[guard] = true
					shape.guards = append(shape.guards, guard)
				}
				if tn := receiverTypeName(field.Type); tn != "" {
					for _, name := range field.Names {
						shape.fields[name.Name] = tn
					}
				}
			}
			out[ts.Name.Name] = shape
			return true
		})
	}
	return out
}

// fieldGuard extracts the guard name from a field's trailing comment.
// The marker may follow descriptive text: `// reserved tasks; guarded-by: mu`.
func fieldGuard(field *ast.Field) (string, bool) {
	if field.Comment == nil {
		return "", false
	}
	for _, c := range field.Comment.List {
		_, rest, ok := strings.Cut(c.Text, marker)
		if !ok {
			continue
		}
		guard := strings.TrimSpace(rest)
		if i := strings.IndexAny(guard, " \t;,"); i >= 0 {
			guard = guard[:i]
		}
		if guard != "" {
			return guard, true
		}
	}
	return "", false
}

// seedReceiverGuards pre-holds guards for *Locked methods: the
// receiver's own guards, plus (one level deep) the guards of its
// struct-typed fields, so a Locked method on an outer type is entered
// with the inner mutex held too (server.setHealthLocked → s.health.mu in
// the testdata corpus).
func seedReceiverGuards(fn *ast.FuncDecl, shapes map[string]*typeShape, st *state) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return
	}
	if !strings.HasSuffix(fn.Name.Name, "Locked") {
		return
	}
	recvName := fn.Recv.List[0].Names[0].Name
	shape := shapes[receiverTypeName(fn.Recv.List[0].Type)]
	if shape == nil {
		return
	}
	for _, guard := range shape.guards {
		st.held[recvName+"."+guard] = true
	}
	for fieldName, fieldType := range shape.fields {
		if inner := shapes[fieldType]; inner != nil {
			for _, guard := range inner.guards {
				st.held[recvName+"."+fieldName+"."+guard] = true
			}
		}
	}
}

func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	}
	return ""
}

// state is the per-path lock and freshness knowledge.
type state struct {
	held  map[string]bool // rendered mutex expressions currently held
	fresh map[string]bool // locals whose value cannot be shared yet
}

func newState() *state {
	return &state{held: map[string]bool{}, fresh: map[string]bool{}}
}

func (s *state) clone() *state {
	c := newState()
	for k := range s.held {
		c.held[k] = true
	}
	for k := range s.fresh {
		c.fresh[k] = true
	}
	return c
}

type walker struct {
	pass *analysis.Pass
	ann  annotations
}

// walkStmts tracks held-ness through one statement list. Branches get
// clones, so their lock changes do not leak past the join.
func (w *walker) walkStmts(stmts []ast.Stmt, st *state) {
	for _, s := range stmts {
		w.walkStmt(s, st)
	}
}

func (w *walker) walkStmt(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if mutex, op, ok := lockOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				st.held[mutex] = true
			case "Unlock", "RUnlock":
				delete(st.held, mutex)
			}
			return
		}
		w.checkExpr(s.X, st)
	case *ast.DeferStmt:
		// defer X.Unlock() pins the lock to function end: no removal.
		if _, op, ok := lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return
		}
		w.checkExpr(s.Call, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.checkExpr(rhs, st)
		}
		for i, lhs := range s.Lhs {
			if s.Tok == token.DEFINE && i < len(s.Rhs) && isFreshValue(s.Rhs[i]) {
				if id, ok := lhs.(*ast.Ident); ok {
					st.fresh[id.Name] = true
					continue
				}
			}
			w.checkExpr(lhs, st)
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.checkExpr(s.Cond, st)
		then := st.clone()
		w.walkStmts(s.Body.List, then)
		outs := make([]*state, 0, 2)
		if !terminates(s.Body.List) {
			outs = append(outs, then)
		}
		if s.Else != nil {
			els := st.clone()
			w.walkStmt(s.Else, els)
			if !elseTerminates(s.Else) {
				outs = append(outs, els)
			}
		} else {
			// No else: falling past the if keeps the pre-branch state.
			outs = append(outs, st.clone())
		}
		// Join: after the if, only locks held on EVERY surviving path are
		// held; same for single-owner freshness. If every path terminates
		// the code after the if is unreachable and the state is moot.
		if len(outs) > 0 {
			meetInto(st, outs)
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, st)
		}
		body := st.clone()
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X, st)
		w.walkStmts(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.checkExpr(e, st)
				}
				w.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := st.clone()
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, branch)
				}
				w.walkStmts(cc.Body, branch)
			}
		}
	case *ast.GoStmt:
		// A fresh value mentioned by a goroutine escapes: from here on it
		// is shared and its guarded fields need the lock again.
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				delete(st.fresh, id.Name)
			}
			return true
		})
		for _, arg := range s.Call.Args {
			w.checkExpr(arg, st)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// The goroutine outlives this critical section: nothing held.
			w.walkStmts(lit.Body.List, newState())
		} else {
			w.checkExpr(s.Call.Fun, st)
		}
	case *ast.SendStmt:
		w.checkExpr(s.Chan, st)
		w.checkExpr(s.Value, st)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, st)
					}
				}
			}
		}
	}
}

// checkExpr flags guarded-field selections made without the guard held.
// Function literals inside expressions inherit the current held set
// (they execute where they are written or as defer epilogues).
func (w *walker) checkExpr(e ast.Expr, st *state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, st.clone())
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := w.pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		guard, ok := w.ann[field]
		if !ok {
			return true
		}
		base := render(sel.X)
		if st.fresh[rootIdent(sel.X)] {
			return true // value constructed in this function; not shared yet
		}
		if !st.held[base+"."+guard] {
			w.pass.Reportf(sel.Pos(), "%s.%s is guarded-by %s but %s.%s is not held here: take the lock, or reach this through a *Locked helper whose name carries the obligation", base, field.Name(), guard, base, guard)
		}
		return true
	})
}

// terminates reports whether control cannot fall off the end of the
// statement list: the last statement returns, panics, exits, or jumps.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			return fn.Name == "panic"
		case *ast.SelectorExpr:
			return render(fn) == "os.Exit"
		}
	}
	return false
}

func elseTerminates(s ast.Stmt) bool {
	if blk, ok := s.(*ast.BlockStmt); ok {
		return terminates(blk.List)
	}
	// else-if chains: assume fallthrough is possible.
	return false
}

// meetInto replaces st's held and fresh sets with the intersection of
// the surviving branch states: only facts true on every path remain.
func meetInto(st *state, outs []*state) {
	st.held = intersect(outs, func(s *state) map[string]bool { return s.held })
	st.fresh = intersect(outs, func(s *state) map[string]bool { return s.fresh })
}

func intersect(outs []*state, pick func(*state) map[string]bool) map[string]bool {
	res := make(map[string]bool)
	for k := range pick(outs[0]) {
		all := true
		for _, o := range outs[1:] {
			if !pick(o)[k] {
				all = false
				break
			}
		}
		if all {
			res[k] = true
		}
	}
	return res
}

// lockOp matches X.Lock/RLock/Unlock/RUnlock() and renders X.
func lockOp(e ast.Expr) (mutex, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return render(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// isFreshValue reports whether the expression denotes a value nothing
// else can reference yet.
func isFreshValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, isLit := e.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of a selector chain.
func rootIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// render prints an expression compactly for held-set keys.
func render(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
