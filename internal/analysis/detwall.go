package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetwallAnalyzer forbids nondeterministic inputs inside the packages
// whose executions must replay identically between the live runtime and
// the explorer: the paper's consequence prediction is only sound if a
// lookahead from a snapshot takes exactly the branches the live system
// would. Wall-clock reads (time.Now/Since/Until), the global math/rand
// generator, environment lookups, and scheduler-shape probes
// (GOMAXPROCS/NumCPU) all smuggle host state into those executions.
//
// Deliberate wall-clock sites — deadline polling, latency stopwatches —
// carry a //crystalvet:wallclock <reason> directive; the reason is the
// reviewable proof that the value never reaches world state, digests, or
// branch choices.
var DetwallAnalyzer = &Analyzer{
	Name:         "detwall",
	AltDirective: "wallclock",
	Doc: "forbid wall-clock, global rand, env, and scheduler-shape reads " +
		"in the deterministic replay packages",
	Filter: func(pkgPath string) bool {
		return deterministicPkgs[pkgPath]
	},
	Run: runDetwall,
}

// deterministicPkgs are the packages under the determinism contract:
// everything a lookahead world's execution can traverse, plus the runtime
// package whose interposition layer sits between the two (its stopwatch
// instrumentation sites are annotated).
var deterministicPkgs = map[string]bool{
	"crystalchoice/internal/explore":  true,
	"crystalchoice/internal/sm":       true,
	"crystalchoice/internal/model":    true,
	"crystalchoice/internal/failure":  true,
	"crystalchoice/internal/scenario": true,
	"crystalchoice/internal/core":     true,
}

// detwallRandAllowed are the math/rand package-level functions that build
// seeded, deterministic generators rather than reading the global one.
var detwallRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// detwallForbidden maps package path -> function name -> description for
// the explicitly banned calls outside math/rand.
var detwallForbidden = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
	"os": {
		"Getenv":    "environment read",
		"LookupEnv": "environment read",
		"Environ":   "environment read",
	},
	"runtime": {
		"GOMAXPROCS":   "scheduler-shape read",
		"NumCPU":       "scheduler-shape read",
		"NumGoroutine": "scheduler-shape read",
	},
}

func runDetwall(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Signature().Recv() != nil {
				return true // methods (e.g. on a seeded *rand.Rand) are fine
			}
			path := fn.Pkg().Path()
			name := fn.Name()
			switch {
			case path == "math/rand" || path == "math/rand/v2":
				if !detwallRandAllowed[name] {
					pass.Reportf(sel.Pos(),
						"global math/rand state in deterministic package: %s.%s (use a seeded *rand.Rand from the Env/world)",
						pathBase(path), name)
				}
			default:
				if desc := detwallForbidden[path][name]; desc != "" {
					pass.Reportf(sel.Pos(),
						"%s in deterministic package: %s.%s (annotate //crystalvet:wallclock <reason> if the value never reaches world state, digests, or branch choices)",
						desc, pathBase(path), name)
				}
			}
			return true
		})
	}
	return nil
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
