package adaptio_test

import (
	"os"
	"path/filepath"
	"regexp"
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
	docsScanned = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "Makefile", ".github/workflows/*.yml"}
)

// TestDocsNameOnlyWhatExists keeps the docs, the Makefile and the workflows
// from naming things that are gone: every `make <target>` must be a rule of
// the Makefile, every BENCH*.json a file at the root, every cmd/<name> a
// directory. (cmd/expdriver's TestScenarioNames does the same for -scenario
// arguments.)
func TestDocsNameOnlyWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]bool{}
	for _, m := range makeRule.FindAllSubmatch(mk, -1) {
		rules[string(m[1])] = true
	}

	checked := 0
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
		}
	}
	if checked < 50 {
		t.Fatalf("only %d names found: the patterns no longer match the docs", checked)
	}
}
