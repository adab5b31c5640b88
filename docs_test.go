package adaptio_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
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
	pkgDir      = regexp.MustCompile(`\s\.(?:/([\w/-]+)|\s|$)`) // "." is the root package
	testFunc    = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	benchFunc   = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	benchOnly   = regexp.MustCompile(`\s-run '\^\$' -bench[ =](\S+)`) // runs no test on purpose
	mdLink      = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdPath      = regexp.MustCompile(`(?:^|[\s(\x60"])((?:[\w-]+/)*[\w-]+\.md)\b`)
	mdSection   = regexp.MustCompile(`((?:[\w-]+/)*[\w-]+\.md),?\s\(?"([^"]+)"`)
	mdHeading   = regexp.MustCompile(`(?m)^#+\s+(.+?)\s*$`)
	mdFence     = regexp.MustCompile("(?ms)^```.*?^```")
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
				checked += checkDocRefs(t, f, data)
				continue // prose wraps its commands; the recipes are what CI runs
			}
			for _, line := range goTestRun.FindAll(data, -1) {
				if m := benchOnly.FindSubmatch(line); m != nil {
					runsChecked++
					if !moduleHasBenchmark(t, string(m[1])) {
						t.Errorf("%s: -bench %s matches no benchmark: the line runs nothing", f, m[1])
					}
					continue
				}
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
						if packageHasFunc(t, string(pkg[1]), testFunc, re) {
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
	if checked < 50 || runsChecked < 15 {
		t.Fatalf("only %d names and %d -run selections found: the patterns no longer match the docs", checked, runsChecked)
	}
}

// checkDocRefs checks what a doc points at: every relative Markdown link
// names a file (relative to the doc) and, after '#', a heading of it; every
// path to a .md file in the prose exists; and every section cited the way
// these docs cite one — docs/x.md, "Heading" — is a heading of that file.
// It returns how many references it checked.
func checkDocRefs(t *testing.T, doc string, data []byte) int {
	t.Helper()
	n := 0
	for _, m := range mdLink.FindAllSubmatch(data, -1) {
		target := string(m[1])
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		n++
		file, anchor, _ := strings.Cut(target, "#")
		if file == "" {
			file = doc
		} else {
			file = filepath.Join(filepath.Dir(doc), file)
		}
		if anchor == "" {
			if _, err := os.Stat(file); err != nil {
				t.Errorf("%s links %s: %v", doc, target, err)
			}
		} else if !slices.Contains(headingSlugs(t, file), anchor) {
			t.Errorf("%s links %s: %s has no such heading", doc, target, file)
		}
	}
	for _, m := range mdPath.FindAllSubmatch(data, -1) {
		n++
		if resolveDoc(doc, string(m[1])) == "" {
			t.Errorf("%s names %s: no such file", doc, m[1])
		}
	}
	for _, m := range mdSection.FindAllSubmatch(data, -1) {
		n++
		file, want := resolveDoc(doc, string(m[1])), strings.ToLower(strings.Join(strings.Fields(string(m[2])), " "))
		found := false
		if file != "" {
			for _, h := range headings(t, file) {
				found = found || strings.Contains(strings.ToLower(h), want)
			}
		}
		if !found {
			t.Errorf("%s cites %s, %q: no such heading", doc, m[1], m[2])
		}
	}
	return n
}

// resolveDoc finds a doc path as the prose writes it: from the repository
// root, else from the citing doc's directory. It returns "" if neither exists.
func resolveDoc(from, path string) string {
	for _, p := range []string{path, filepath.Join(filepath.Dir(from), path)} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// headings returns the text of file's Markdown headings outside code fences.
func headings(t *testing.T, file string) []string {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var hs []string
	for _, m := range mdHeading.FindAllSubmatch(mdFence.ReplaceAll(data, nil), -1) {
		hs = append(hs, string(m[1]))
	}
	return hs
}

// headingSlugs returns the #anchors GitHub gives file's headings: lower
// case, punctuation dropped, spaces to '-', repeats suffixed -1, -2, ...
func headingSlugs(t *testing.T, file string) []string {
	var slugs []string
	seen := map[string]int{}
	for _, h := range headings(t, file) {
		s := strings.Map(func(r rune) rune {
			switch {
			case r == ' ':
				return '-'
			case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
				return unicode.ToLower(r)
			}
			return -1
		}, h)
		if k := seen[s]; k > 0 {
			seen[s]++
			s = fmt.Sprintf("%s-%d", s, k)
		} else {
			seen[s] = 1
		}
		slugs = append(slugs, s)
	}
	return slugs
}

// docBudget is the byte ceiling of every file docsScanned reads, and of
// CHANGES.md. As with TestOptionsLedger, growing a doc means raising its
// number here in the same diff, and the Markdown ceilings together stay
// within docsTotalBudget, so room for one doc comes out of another.
var docBudget = map[string]int{
	"README.md":                     6_300,
	"DESIGN.md":                     14_300,
	"EXPERIMENTS.md":                14_100,
	"docs/algorithm.md":             4_400,
	"docs/coordination.md":          8_700,
	"docs/deciders.md":              15_500,
	"docs/observability.md":         11_500,
	"docs/performance.md":           28_450,
	"docs/robustness.md":            9_600,
	"docs/scaling.md":               8_200,
	"docs/scenarios.md":             12_000,
	"docs/simulation.md":            6_950,
	"Makefile":                      8_000,
	".github/workflows/ci.yml":      7_000,
	".github/workflows/nightly.yml": 6_200,
	"CHANGES.md":                    36_000,
}

const (
	docsTotalBudget   = 140_000 // the .md ceilings of docsScanned, summed
	changesEntryBytes = 1536
	changesLineRunes  = 100
)

// changesEntry marks the line that starts a CHANGES.md entry.
var changesEntry = regexp.MustCompile(`(?m)^PR \d+`)

// TestDocsWithinBudget holds every scanned doc to its ceiling in docBudget,
// and every CHANGES.md entry — from a line starting "PR <n>" to the next —
// to changesEntryBytes, in lines of at most changesLineRunes columns.
func TestDocsWithinBudget(t *testing.T) {
	scanned := map[string]bool{}
	for _, pat := range docsScanned {
		files, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			scanned[f] = true
			if _, ok := docBudget[f]; !ok {
				t.Errorf("%s has no ceiling in docBudget", f)
			}
		}
	}
	mdTotal := 0
	for f, ceiling := range docBudget {
		if !scanned[f] && f != "CHANGES.md" {
			t.Errorf("docBudget lists %s, which docsScanned does not read", f)
		}
		if scanned[f] && filepath.Ext(f) == ".md" {
			mdTotal += ceiling
		}
		fi, err := os.Stat(f)
		if err != nil {
			t.Errorf("docBudget: %v", err)
		} else if fi.Size() > int64(ceiling) {
			t.Errorf("%s is %d bytes, over its ceiling of %d: cut it, or raise the number in docBudget", f, fi.Size(), ceiling)
		}
	}
	if mdTotal > docsTotalBudget {
		t.Errorf("the Markdown ceilings sum to %d, over docsTotalBudget %d", mdTotal, docsTotalBudget)
	}

	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	starts := changesEntry.FindAllIndex(data, -1)
	if len(starts) < 20 {
		t.Fatalf("CHANGES.md: only %d entries start with a \"PR <n>\" line", len(starts))
	}
	for i, st := range starts {
		end := len(data)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		entry, name := data[st[0]:end], data[st[0]:st[1]]
		if len(entry) > changesEntryBytes {
			t.Errorf("CHANGES.md: the %s entry is %d bytes, over %d", name, len(entry), changesEntryBytes)
		}
		for i, line := range strings.Split(string(entry), "\n") {
			if n := utf8.RuneCountInString(line); n > changesLineRunes {
				t.Errorf("CHANGES.md: line %d of the %s entry has %d columns, over %d", i+1, name, n, changesLineRunes)
				break
			}
		}
	}
}

// moduleHasBenchmark reports whether a benchmark of this module (bench/ is a
// module of its own) matches the -bench pattern.
func moduleHasBenchmark(t *testing.T, pattern string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Errorf("-bench %s: %v", pattern, err)
		return false
	}
	found := false
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case path == "bench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case packageHasFunc(t, path, benchFunc, re):
			found = true
			return filepath.SkipAll
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// packageHasFunc reports whether a function fn finds in dir's _test.go files
// (testFunc, benchFunc) has a name matching re, the way `go test -run` or
// -bench would select it.
func packageHasFunc(t *testing.T, dir string, fn, re *regexp.Regexp) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fn.FindAllSubmatch(src, -1) {
			if re.Match(m[1]) {
				return true
			}
		}
	}
	return false
}
