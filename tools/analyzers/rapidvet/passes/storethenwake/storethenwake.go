// Package storethenwake enforces the PR-7 deposit protocol of the
// event-driven executor: a processor that deposits observable protocol
// state into a peer — an address package through the slot mesh, a data
// payload into a remote buffer, a control-signal increment — must post
// the destination's wake token, and must post it AFTER the deposit. The
// receiver's park path re-examines state only when a token arrives; a
// deposit with no token is a lost wakeup (the receiver parks forever on
// state that is already there), and a token posted before the store is a
// window in which the receiver can wake, observe nothing, and park again
// while the depositor completes the store and posts nothing further.
//
// Deposit sites are matched structurally by the executor's method
// vocabulary, so testdata corpora can define local lookalikes:
//
//   - Put / PutFlagOnly — RMA data deposit into a remote buffer;
//   - TrySend — address-package deposit through the single-slot mesh
//     (only the success path owes a wake, so the analyzer requires a
//     wake somewhere after the call site, which the
//     `if !TrySend { return }` idiom satisfies);
//   - ConsumeAppend — draining the mesh frees slots, which owes each
//     freed sender a wake;
//   - Add on a receiver whose expression mentions CtlRecv (any case) —
//     the run's control-signal counters (proto.Engine.CtlRecv), which REC
//     parks on.
//
// The wake post is any call to a method or function named wake/Wake.
// The rule is lexical within one function body: every deposit call must
// be followed (later in the source of the same function) by a wake
// call. This intentionally also rejects the reordered wake-then-store
// shape — a wake that precedes the deposit does not discharge it. A
// `go func(){...}` body is its own actor and pairs deposits with its
// own wakes.
package storethenwake

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"

	"repro/tools/analyzers/rapidvet/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "storethenwake",
	Doc: "every deposit of observable protocol state (Put/PutFlagOnly/TrySend/ConsumeAppend/CtlRecv.Add) " +
		"must be followed by a wake-token post in the same function; a missing or pre-store wake is the " +
		"PR-7 lost-wakeup bug",
	DefaultPackages: []string{
		"internal/exec",
		"internal/proto",
	},
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil, nil
}

// deposit is one protocol-state store owed a subsequent wake.
type deposit struct {
	call *ast.CallExpr
	site string
}

// checkBody pairs deposits with wakes inside one actor's body. Goroutine
// literals are recursed into as separate actors and excluded from the
// enclosing body's pairing.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var deposits []deposit
	var wakes []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkBody(pass, lit.Body)
			}
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if site, ok := depositSite(call); ok {
				deposits = append(deposits, deposit{call, site})
			}
			if isWake(call) {
				wakes = append(wakes, call.Pos())
			}
		}
		return true
	})
	for _, d := range deposits {
		if !wakeAfter(d.call.Pos(), wakes) {
			pass.Reportf(d.call.Pos(), "%s deposits observable protocol state but no wake-token post follows in this function: "+
				"a parked receiver re-examines state only after a token, so this deposit can be a lost wakeup "+
				"(post wake AFTER the store; a wake that precedes the store leaves a park-forever window) [PR-7]", d.site)
		}
	}
}

func wakeAfter(pos token.Pos, wakes []token.Pos) bool {
	for _, w := range wakes {
		if w > pos {
			return true
		}
	}
	return false
}

// depositSite matches the executor's deposit vocabulary and names the
// site for the diagnostic.
func depositSite(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Put", "PutFlagOnly", "TrySend", "ConsumeAppend":
		return render(sel.X) + "." + sel.Sel.Name, true
	case "Add":
		if strings.Contains(strings.ToLower(render(sel.X)), "ctlrecv") {
			return render(sel.X) + ".Add", true
		}
	}
	return "", false
}

// isWake matches a call to wake/Wake as method or plain function.
func isWake(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "wake" || fun.Sel.Name == "Wake"
	case *ast.Ident:
		return fun.Name == "wake" || fun.Name == "Wake"
	}
	return false
}

// render prints an expression compactly.
func render(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
