// Command coruscantvet is the repository's domain-specific vet tool: a
// unitchecker bundling the analyzers under internal/analysis that
// machine-check the bit-plane engine's invariants.
//
// It is meant to be driven by the go command:
//
//	go build -o bin/coruscantvet ./cmd/coruscantvet
//	go vet -vettool=bin/coruscantvet ./...
//
// (make lint does exactly that.) Deliberate violations are silenced
// line-by-line with
//
//	//coruscantvet:ignore <analyzer names> -- <reason>
//
// where the reason is mandatory; see DESIGN.md "Invariants & static
// analysis" for each analyzer's contract.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/analysis/facadeerr"
	"repro/internal/analysis/masktail"
	"repro/internal/analysis/panicmsg"
	"repro/internal/analysis/rowalias"
	"repro/internal/analysis/scratchescape"
	"repro/internal/analysis/seededrand"
	"repro/internal/analysis/spanbalance"
)

func main() {
	unitchecker.Main(
		facadeerr.Analyzer,
		masktail.Analyzer,
		panicmsg.Analyzer,
		rowalias.Analyzer,
		scratchescape.Analyzer,
		seededrand.Analyzer,
		spanbalance.Analyzer,
	)
}
