package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden runs the analyzer over each fixture package and compares
// the findings, rendered with fixture-relative paths, against the
// golden file. Regenerate with:
//
//	go test ./internal/analysis -run TestGolden -update
func TestGolden(t *testing.T) {
	fixtures := []string{
		"arith", "atomicsafety", "blockunderlock", "clean", "ctxloop",
		"goroutinelife", "heldwalk", "hotalloc", "infguard", "lockorder", "mixerlock",
		"slab",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkg, err := LoadDir(dir, "fixture/"+name)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			var buf strings.Builder
			for _, d := range Analyze([]*Package{pkg}) {
				rel, err := filepath.Rel(dir, d.Pos.Filename)
				if err != nil {
					rel = d.Pos.Filename
				}
				fmt.Fprintf(&buf, "%s:%d:%d: %s: %s\n",
					filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
			}
			got := buf.String()
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestModuleSelfClean is the in-tree equivalent of the CI gate: the
// analyzer over this module itself must report nothing. Any new raw
// Cycles arithmetic, slab poke, or lock-order regression fails here
// before it fails in CI.
func TestModuleSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; walk is broken", len(pkgs))
	}
	for _, d := range Analyze(pkgs) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// findRepoRoot walks up from the working directory to go.mod.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
