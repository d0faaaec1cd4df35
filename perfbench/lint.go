package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
)

// The lint workload does what `qoslint ./...` does: analysis.LoadModule
// plus analysis.Analyze over the module tree the benchmark runs in —
// the same tree CI lints.

// injectFixture is a package of known arithmetic findings from the
// analyzer's own golden tests; --inject lints it along with the module.
const injectFixture = "internal/analysis/testdata/src/arith"

// lintSetup finds the module root and reads every Go source once, as
// LoadModule will walk it: the lint workload's set-up. qoslint has no
// set-up of its own beyond LoadModule, so this times the file system,
// not the program's code. It returns the root and the number of files
// read.
func lintSetup() (string, int, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", 0, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", 0, errors.New("no go.mod above the working directory")
		}
		root = parent
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if _, err := os.ReadFile(path); err != nil {
			return err
		}
		files++
		return nil
	})
	return root, files, err
}

// lintStats tallies one phase of lint runs.
type lintStats struct {
	secs               []float64
	packages, findings int
}

// lint runs LoadModule + Analyze until the deadline (at least once).
func lint(root string, until time.Time, inject bool, tr *tracer, reqBase int64, res *result) (lintStats, error) {
	var st lintStats
	for k := int64(0); len(st.secs) == 0 || time.Now().Before(until); k++ {
		// Start every lint from a collected heap, so lints do not pay
		// for each other's garbage.
		runtime.GC()
		req := reqBase + k
		start := time.Now()
		root0 := tr.begin(spBenchLint, noParent, req)
		i := tr.begin(spAnalysisLoad, root0, req)
		pkgs, err := analysis.LoadModule(root)
		tr.end(i)
		if err != nil {
			tr.end(root0)
			res.attempted++
			res.failed++
			res.violate("lint: LoadModule: %v", err)
			return st, nil
		}
		if inject {
			fixture, err := analysis.LoadDir(filepath.Join(root, injectFixture), "arith")
			if err != nil {
				tr.end(root0)
				return st, err
			}
			pkgs = append(pkgs, fixture)
		}
		i = tr.begin(spAnalysisAnalyze, root0, req)
		diags := analysis.Analyze(pkgs)
		tr.end(i)
		tr.end(root0)
		done := time.Now()
		tr.enclose(root0, start, done)
		st.secs = append(st.secs, done.Sub(start).Seconds())
		st.packages += len(pkgs)
		st.findings += len(diags)

		dirty := make(map[string]bool)
		for _, d := range diags {
			dirty[filepath.Dir(d.Pos.Filename)] = true
			if len(res.violations) < 5 {
				res.violate("lint: finding %s", d)
			}
		}
		res.attempted += int64(len(pkgs))
		res.failed += int64(len(dirty))
	}
	return st, nil
}

func (st lintStats) packagesPerS() float64 {
	var total float64
	for _, s := range st.secs {
		total += s
	}
	return float64(st.packages) / total
}

func runLint(e env) (*result, error) {
	if !e.trace {
		return runLintUntraced(e)
	}
	tr := newTracer(time.Now(), spanCapacity)
	root, _, err := repeatSetup(func(int) (string, error) {
		root, _, err := lintSetup()
		return root, err
	}, func(string) {})
	if err != nil {
		return nil, err
	}
	res := &result{}
	half := e.window / 2
	a, err := lint(root, time.Now().Add(half), e.inject, nil, 0, res)
	if err != nil {
		return nil, err
	}
	b, err := lint(root, time.Now().Add(half), false, tr, 1, res)
	if err != nil {
		return nil, err
	}
	if len(a.secs) == 0 || len(b.secs) == 0 {
		return res, nil
	}
	sum := tr.summarize()
	if sum.violations > 0 {
		res.violate("lint trace: %d span structure violations", sum.violations)
	}
	res.layer = map[string]float64{
		"analysis.load_s":      sum.meanDur(spAnalysisLoad) / 1e9,
		"analysis.analyze_ms":  sum.meanDur(spAnalysisAnalyze) / 1e6,
		"analysis.packages":    float64(b.packages) / float64(len(b.secs)),
		"analysis.findings":    float64(b.findings) / float64(len(b.secs)),
		"bench.trace_overhead": a.packagesPerS()/b.packagesPerS() - 1,
		"bench.clock_ns":       clockNs(tr),
		"bench.spans":          float64(len(tr.spans)),
	}
	res.opsPerS = a.packagesPerS()
	res.add("lint_s", median(a.secs), "s")
	res.add("traced_lint_s", median(b.secs), "s")
	res.add("trace_root_coverage", sum.coverage, "ratio")
	res.tr = tr
	return res, nil
}

// runLintUntraced lints for the run's window, timing set-up between
// slices of it. A lint takes longer than a slice, so each slice is one
// lint.
func runLintUntraced(e env) (*result, error) {
	root, files, err := lintSetup()
	if err != nil {
		return nil, err
	}
	res := &result{}
	var st lintStats
	setupS, err := interleave(e.window,
		func() (string, error) {
			root, _, err := lintSetup()
			return root, err
		},
		func(string) {},
		func(until time.Time) error {
			s, err := lint(root, until, e.inject && len(st.secs) == 0, nil, int64(len(st.secs)), res)
			st.secs = append(st.secs, s.secs...)
			st.packages += s.packages
			st.findings += s.findings
			return err
		})
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	res.add("setup_s", setupS, "s")
	res.add("source_files", float64(files), "count")
	if len(st.secs) == 0 {
		return res, nil
	}
	res.opsPerS = st.packagesPerS()
	res.opP50us = median(st.secs) * 1e6
	res.add("lint_s", median(st.secs), "s")
	res.add("packages_per_s", res.opsPerS, "1/s")
	res.add("lints", float64(len(st.secs)), "count")
	return res, nil
}
