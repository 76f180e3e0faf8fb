// Command worksimlint runs the repository's static-analysis suite — the
// five analyzers that make the simulator's core invariants structural:
// determinism (no wall clock / ambient randomness / map-ordered output in
// simulation packages), facadeboundary (cmd/ and examples/ use only the
// public repro/worksim... façade; internal/ never imports it back),
// ctxdiscipline (leading context.Context on exported blocking façade APIs;
// //worksim:tickloop loops check cancellation and never call time.Sleep),
// gohygiene (every go statement in the simulation packages is join-tracked;
// counters are typed atomics, never sync/atomic function calls), and
// escapebudget (the gc compiler's own escape/inlining diagnostics gated per
// //worksim:hotpath function against lint/escape_budget.json with ratchet
// semantics). Sync primitives copied by value are go vet's copylocks check
// and are not repeated here.
//
// Usage:
//
//	worksimlint [packages]      # analyze packages (default ./...)
//	worksimlint -list           # list the analyzers, then exit
//	worksimlint -json           # machine-readable diagnostics
//	worksimlint -audit          # emit the //worksim:allow suppression ledger
//	worksimlint -update-budget  # re-record lint/escape_budget.json, then exit
//
// Diagnostics print as file:line:col: [analyzer] message — sorted by
// (file, line, col, analyzer) and root-relative, so two runs over the same
// tree are byte-identical — and any finding makes the process exit 1, so
// `go run ./cmd/worksimlint ./...` doubles as the CI gate. Suppress a
// deliberate exception at its line (or the line above) with
// `//worksim:allow <reason>`; -audit prints every such directive with the
// analyzers it suppresses as JSON and fails on directives that are bare or
// suppress nothing, so the exception inventory stays reviewable.
//
// The escapebudget analyzer ratchets in both directions: a hot-path
// function that gains a heap escape fails, and one that loses an escape
// also fails until the improvement is locked in with -update-budget.
//
// worksimlint deliberately imports only repro/internal/analysis: it is a
// build-time tool, not a simulation client, so the facadeboundary rule
// exempts nothing for it — it never touches the engine at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis" //worksim:allow build-time lint tool, not an engine client; the façade rule for cmd/ intentionally does not cover the linter itself
)

func main() {
	var (
		list         = flag.Bool("list", false, "list the analyzer suite, then exit")
		jsonOut      = flag.Bool("json", false, "emit diagnostics as JSON")
		exitZero     = flag.Bool("exit-zero", false, "always exit 0 (report-only mode)")
		audit        = flag.Bool("audit", false, "emit the //worksim:allow suppression ledger as JSON; fail on bare or orphaned directives")
		updateBudget = flag.Bool("update-budget", false, "re-record lint/escape_budget.json for the loaded packages, then exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := analysis.ModuleRoot(".")
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := analysis.Load(root, flag.Args()...)
	if err != nil {
		fatalf("%v", err)
	}

	if *updateBudget {
		n, err := analysis.UpdateEscapeBudget(root, pkgs)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "worksimlint: recorded escape budgets for %d hot-path function(s) in %s\n", n, analysis.EscapeBudgetPath)
		return
	}

	if *audit {
		report, failures, err := analysis.Audit(root, pkgs, analysis.All())
		if err != nil {
			fatalf("%v", err)
		}
		if err := analysis.EncodeAuditReport(os.Stdout, report); err != nil {
			fatalf("%v", err)
		}
		for _, d := range failures {
			fmt.Fprintln(os.Stderr, analysis.FormatDiagnostic(root, d))
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "worksimlint: %d suppression-ledger failure(s)\n", len(failures))
			if !*exitZero {
				os.Exit(1)
			}
		}
		return
	}

	diags, err := analysis.RunRoot(root, pkgs, analysis.All())
	if err != nil {
		fatalf("%v", err)
	}

	if *jsonOut {
		if err := analysis.EncodeDiagnostics(os.Stdout, root, diags); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(analysis.FormatDiagnostic(root, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "worksimlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		if !*exitZero {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "worksimlint: "+format+"\n", args...)
	os.Exit(2)
}
