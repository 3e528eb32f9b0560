package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Outcomecheck targets the two bug classes PR 9 fixed by hand and nothing
// was stopping from coming back:
//
//   - discarded error returns from the migration control APIs —
//     cluster.Testbed.Migrate (and any Migrate-prefixed method), ctlplane
//     Launch, Submit* — whose error IS the admission verdict (capacity
//     rejected, VM already migrating); dropping it turns a refused
//     migration into silent no-op "success";
//   - RunUntilMigrated's Outcome treated as a bool: the result ignored
//     outright, compared against a bare integer literal, collapsed into a
//     stored boolean (done := outcome == Completed) that later code
//     cannot tell Aborted from Timeout through, or switched over
//     non-exhaustively.
//
// Test files are exempt (tests legitimately ignore outcomes they don't
// assert on). Escape hatch: //lint:outcomecheck <justification>.
var Outcomecheck = &analysis.Analyzer{
	Name:     "outcomecheck",
	Doc:      "migration verdicts must be consumed: no discarded Migrate/Launch/Submit errors, no Outcome-as-bool",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runOutcomecheck,
}

// outcomeCall reports whether the call's static callee is one of the
// migration control APIs whose final error result is the admission
// verdict.
func outcomeCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, bool) {
	fn, _ := useObj(pass, call.Fun).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	name := fn.Name()
	if name != "Launch" && !hasPrefix(name, "Migrate") && !hasPrefix(name, "Submit") {
		return nil, false
	}
	path := fn.Pkg().Path()
	if !hasSuffixSegment(path, "cluster") && !hasSuffixSegment(path, "ctlplane") {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil, false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return nil, false
	}
	return fn, true
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// isOutcomeType reports whether t is the cluster Outcome verdict type
// (the root-package alias resolves to the same named type).
func isOutcomeType(t types.Type) bool {
	return t != nil && namedTypeIn(t, "cluster", "Outcome")
}

// isRunUntilMigrated reports whether the call is (a method named)
// RunUntilMigrated returning an Outcome.
func isRunUntilMigrated(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn, _ := useObj(pass, call.Fun).(*types.Func)
	if fn == nil || fn.Name() != "RunUntilMigrated" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1 && isOutcomeType(sig.Results().At(0).Type())
}

func runOutcomecheck(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	nodeTypes := []ast.Node{
		(*ast.CallExpr)(nil),
		(*ast.BinaryExpr)(nil),
		(*ast.SwitchStmt)(nil),
	}
	ins.WithStack(nodeTypes, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || inTestFile(pass, n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkDiscarded(pass, n, stack)
		case *ast.BinaryExpr:
			checkOutcomeCompare(pass, n, stack)
		case *ast.SwitchStmt:
			checkOutcomeSwitch(pass, n)
		}
		return true
	})
	return nil, nil
}

// checkDiscarded flags migration-API calls whose verdict never lands in
// a variable: expression statements, go/defer statements, and
// assignments that blank the error position.
func checkDiscarded(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if len(stack) < 2 {
		return
	}
	parent := stack[len(stack)-2]

	// R2: RunUntilMigrated() as a bare statement, or blanked outright —
	// the Outcome vanishes either way.
	if isRunUntilMigrated(pass, call) {
		dropped := false
		switch p := parent.(type) {
		case *ast.ExprStmt:
			dropped = true
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && p.Rhs[0] == call {
				dropped = true
				for _, lhs := range p.Lhs {
					if id, isID := unparen(lhs).(*ast.Ident); !isID || id.Name != "_" {
						dropped = false
					}
				}
			}
		}
		if dropped {
			if allowed(pass, call.Pos(), "outcomecheck") {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: call.Pos(), End: call.End(),
				Message: "RunUntilMigrated's Outcome is discarded; Aborted and Timeout look identical to Completed here — " +
					"assign and check it (//lint:outcomecheck <why> to waive)",
			})
		}
		return
	}

	fn, ok := outcomeCall(pass, call)
	if !ok {
		return
	}
	var bad string
	switch p := parent.(type) {
	case *ast.ExprStmt:
		bad = "discarded"
	case *ast.GoStmt:
		bad = "discarded by go statement"
	case *ast.DeferStmt:
		bad = "discarded by defer"
	case *ast.AssignStmt:
		// Only the multi-value `h, _ := Migrate(...)` form can blank the
		// error; find the call's position among the LHS.
		if len(p.Rhs) == 1 && p.Rhs[0] == call && len(p.Lhs) >= 1 {
			last := p.Lhs[len(p.Lhs)-1]
			if id, isID := unparen(last).(*ast.Ident); isID && id.Name == "_" {
				bad = "assigned to _"
			}
		}
	}
	if bad == "" || allowed(pass, call.Pos(), "outcomecheck") {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: call.Pos(), End: call.End(),
		Message: fn.Name() + "'s error is the admission verdict (capacity rejected, VM already migrating) and is " +
			bad + "; a refused migration would become a silent no-op (//lint:outcomecheck <why> to waive)",
	})
}

// checkOutcomeCompare flags two Outcome-as-bool shapes: comparison
// against a bare integer literal (R3), and an ==/!= comparison whose
// boolean result is stored rather than branched on (R5) — collapsing the
// three-valued verdict into one bit that later code cannot audit.
func checkOutcomeCompare(pass *analysis.Pass, be *ast.BinaryExpr, stack []ast.Node) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	xOutcome := isOutcomeType(pass.TypesInfo.TypeOf(be.X))
	yOutcome := isOutcomeType(pass.TypesInfo.TypeOf(be.Y))
	if !xOutcome && !yOutcome {
		return
	}

	// R3: untyped integer literal on either side.
	for _, side := range []ast.Expr{be.X, be.Y} {
		if lit, ok := unparen(side).(*ast.BasicLit); ok && lit.Kind == token.INT {
			if allowed(pass, be.Pos(), "outcomecheck") {
				return
			}
			pass.Report(analysis.Diagnostic{
				Pos: be.Pos(), End: be.End(),
				Message: "Outcome compared against bare integer " + lit.Value +
					"; use the named OutcomeCompleted/OutcomeAborted/OutcomeTimeout constants",
			})
			return
		}
	}

	// R5: the comparison's bool is stored/passed/returned instead of
	// driving a branch. Walk up through parens and ! to the first
	// non-expression parent and classify it.
	i := len(stack) - 2
	for i >= 0 {
		switch stack[i].(type) {
		case *ast.ParenExpr:
			i--
			continue
		case *ast.UnaryExpr: // !(...)
			i--
			continue
		}
		break
	}
	if i < 0 {
		return
	}
	var sunk string
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		// Branch conditions of if/for arrive as the IfStmt/ForStmt parent,
		// not an assignment; any assignment here is a real bool collapse.
		sunk = "stored in a bool"
		_ = p
	case *ast.CompositeLit, *ast.KeyValueExpr:
		sunk = "stored in a composite literal field"
	case *ast.ReturnStmt:
		sunk = "returned as a bool"
	case *ast.CallExpr:
		sunk = "passed as a bool argument"
	case *ast.ValueSpec:
		sunk = "stored in a bool"
	}
	if sunk == "" || allowed(pass, be.Pos(), "outcomecheck") {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: be.Pos(), End: be.End(),
		Message: "Outcome collapsed to a bool (" + sunk + "): Aborted and Timeout become indistinguishable downstream; " +
			"keep the Outcome value (//lint:outcomecheck <why> to waive)",
	})
}

// checkOutcomeSwitch flags a switch over an Outcome that neither covers
// all three verdicts nor has a default.
func checkOutcomeSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isOutcomeType(pass.TypesInfo.TypeOf(sw.Tag)) {
		return
	}
	outcomeNames := [...]string{0: "OutcomeCompleted", 1: "OutcomeAborted", 2: "OutcomeTimeout"}
	covered := make(map[string]bool)
	for _, cc := range sw.Body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			return // default present
		}
		for _, e := range clause.List {
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case
			}
			if obj := useObj(pass, e); obj != nil {
				covered[obj.Name()] = true
			}
		}
	}
	var missing []string
	for _, name := range outcomeNames {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 || allowed(pass, sw.Switch, "outcomecheck") {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: sw.Switch, End: sw.Tag.End(),
		Message: "switch over cluster.Outcome ignores " + joinNames(missing) +
			"; cover every verdict or add a default (//lint:outcomecheck <why> to waive)",
	})
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
