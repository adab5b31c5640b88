package adaptio_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// What a doc or workflow can name that this test can look up. A `make`
// invocation counts where it is code: after a backtick, or opening a line of
// a fenced block, a recipe or a workflow `run:`.
var (
	makeTarget  = regexp.MustCompile("(?m)(?:`|^\\s*(?:run:\\s*)?)make ([a-z][\\w-]*)")
	makeRule    = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
	benchJSON   = regexp.MustCompile(`\bBENCH\w*\.json\b`)
	cmdPackage  = regexp.MustCompile(`(?m)(?:^|[^\w/])(?:\./)?cmd/([a-z][a-z0-9]*)`)
	goTestRun   = regexp.MustCompile(`(?m)(?:\$\(GO\)|\bgo) test\b.*\s-run\b.*$`)
	runPattern  = regexp.MustCompile(`\s-run[ =]'([^']+)'`)
	pkgDir      = regexp.MustCompile(`\s\./([\w/-]+)`)
	testFunc    = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	docsScanned = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "Makefile", ".github/workflows/*.yml"}
)

// TestDocsNameOnlyWhatExists keeps the docs, the Makefile and the workflows
// from naming things that are gone: every `make <target>` must be a rule of
// the Makefile, every BENCH*.json a file at the root, every cmd/<name> a
// directory, and every `go test -run '<regex>' <packages>` of a recipe must
// select a test in each package it names, with each alternative of the regex
// selecting one somewhere — a -run that matches nothing passes, so a renamed
// test would silently leave its gate. (cmd/expdriver's TestScenarioNames
// does the same for -scenario arguments.)
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, m := range makeRule.FindAllSubmatch(mk, -1) {
		rules[string(m[1])] = true
	}

	checked, runsChecked := 0, 0
	for _, pat := range docsScanned {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("glob %s: %v, %d files", pat, err, len(files))
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range makeTarget.FindAllSubmatch(data, -1) {
				checked++
				if !rules[string(m[1])] {
					t.Errorf("%s runs `make %s`: the Makefile has no such target", f, m[1])
				}
			}
			for _, m := range benchJSON.FindAll(data, -1) {
				checked++
				if _, err := os.Stat(string(m)); err != nil {
					t.Errorf("%s names %s: %v", f, m, err)
				}
			}
			for _, m := range cmdPackage.FindAllSubmatch(data, -1) {
				checked++
				if fi, err := os.Stat(filepath.Join("cmd", string(m[1]))); err != nil || !fi.IsDir() {
					t.Errorf("%s names cmd/%s: not a directory", f, m[1])
				}
			}
			if filepath.Ext(f) == ".md" {
				continue // prose wraps its commands; the recipes are what CI runs
			}
			for _, line := range goTestRun.FindAll(data, -1) {
				pat, pkgs := runPattern.FindSubmatch(line), pkgDir.FindAllSubmatch(line, -1)
				if pat == nil || len(pkgs) == 0 {
					t.Errorf("%s: cannot read the -run pattern and packages of %q", f, line)
					continue
				}
				// None of the recipes' patterns group, so "|" splits them.
				alts := strings.Split(string(pat[1]), "|")
				altHit, pkgHit := make([]bool, len(alts)), make([]bool, len(pkgs))
				for i, alt := range alts {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: -run %s: %v", f, pat[1], err)
						continue
					}
					for j, pkg := range pkgs {
						if packageHasTest(t, string(pkg[1]), re) {
							altHit[i], pkgHit[j] = true, true
						}
					}
				}
				for i, alt := range alts {
					if !altHit[i] {
						t.Errorf("%s: -run '%s': %q matches no test in the packages named: the line passes without running it", f, pat[1], alt)
					}
				}
				for j, pkg := range pkgs {
					runsChecked++
					if !pkgHit[j] {
						t.Errorf("%s: -run '%s' matches no test in ./%s", f, pat[1], pkg[1])
					}
				}
			}
		}
	}
	if checked < 50 || runsChecked < 20 {
		t.Fatalf("only %d names and %d -run selections found: the patterns no longer match the docs", checked, runsChecked)
	}
}

// packageHasTest reports whether a test function in dir's _test.go files
// matches re the way `go test -run` would select it.
func packageHasTest(t *testing.T, dir string, re *regexp.Regexp) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if re.Match(m[1]) {
				return true
			}
		}
	}
	return false
}
