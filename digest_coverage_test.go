// Enforcement of BodyDigester coverage: every message kind declared
// anywhere in the repository must carry a body type that hashes through
// sm.BodyDigester, never the fmt reflection fallback (which is slow and
// fragile — it reruns per state visit and breaks on pointer or map
// bodies).
//
// The static half delegates to crystalvet's digestmaint analyzer, which
// checks the Kind<Name> constant ↔ <Name> body type convention against
// the type system (including the pointer-receiver trap the old
// sample-value scan could miss when a body was registered by pointer).
// The dynamic half below still explores every app and asserts no message
// the handlers actually produce falls back to reflection.
package crystalchoice

import (
	"testing"

	"crystalchoice/internal/analysis"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// TestBodyDigesterCoverage runs the digestmaint analyzer over the whole
// repository: every Kind* constant needs a package-level BodyDigester
// body type, and every digest-contributing World write its maintenance.
func TestBodyDigesterCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole repository; skipped in -short")
	}
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatalf("load packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("package discovery looks broken: only %d packages loaded", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.DigestmaintAnalyzer}, true)
	if err != nil {
		t.Fatalf("run digestmaint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestNoReflectionFallbackDuringExploration arms the fallback hook and
// explores each app's world deeply: every message the handlers produce must
// hash via BodyDigester too (nil bodies are exempt — they hash as empty).
func TestNoReflectionFallbackDuringExploration(t *testing.T) {
	for _, app := range digestApps() {
		app := app
		t.Run(app.name, func(t *testing.T) {
			var offenders []string
			sm.ReflectionFallback = func(m *sm.Msg) { offenders = append(offenders, m.Kind) }
			defer func() { sm.ReflectionFallback = nil }()
			x := explore.NewExplorer(6)
			x.MaxStates = 2048
			// The oracle recomputes the digest from scratch at every explored
			// state, which drives every body's DigestBody (the maintained
			// digest alone would answer from per-message memos).
			x.Properties = []explore.Property{{Name: "digest==digestfull", Check: func(w *explore.World) bool {
				return w.Digest() == w.DigestFull()
			}}}
			if r := x.Explore(app.mkWorld()); !r.Safe() {
				t.Fatalf("maintained digest diverged from DigestFull: %v", r.Violations[0])
			}
			if len(offenders) > 0 {
				t.Fatalf("reflection-hashed message kinds during exploration: %v", offenders)
			}
		})
	}
}
