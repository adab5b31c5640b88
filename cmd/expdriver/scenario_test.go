package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"adaptio/internal/scenario"
)

// scenarioArg matches a `-scenario <arg>` invocation; the leading class
// keeps `test-scenario flaps` (a Makefile target list) out.
var scenarioArg = regexp.MustCompile("(?:^|[^\\w-])-scenario[ =]+([^\\s`'\")|,]+)")

// TestScenarioNames keeps the gates from rotting by name: every scenario a
// Makefile target, CI step, the smoke script or a doc invokes must be one
// the driver can run, and the retired names must not be.
func TestScenarioNames(t *testing.T) {
	var files []string
	for _, pat := range []string{"Makefile", ".github/workflows/*.yml", "scripts/smoke.sh", "docs/*.md"} {
		m, err := filepath.Glob(filepath.Join("..", "..", pat))
		if err != nil || len(m) == 0 {
			t.Fatalf("glob %s: %v, %d files", pat, err, len(m))
		}
		files = append(files, m...)
	}
	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range scenarioArg.FindAllStringSubmatch(string(data), -1) {
			arg := m[1]
			if strings.HasPrefix(arg, "<") || strings.ContainsAny(arg, "/$") {
				continue // a placeholder or a user's file path, not a name
			}
			checked++
			if _, _, err := scenario.Resolve(arg); err != nil {
				t.Errorf("%s runs -scenario %s: %v", f, arg, err)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d -scenario invocations found: the pattern no longer matches the gates", checked)
	}

	// The hand-coded runners are gone: asking for one is a usage error that
	// says what can be run instead.
	for _, name := range []string{"sharednic", "soak"} {
		stderr := os.Stderr
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = w
		code := runScenario(name, 1, "", "", "", 0)
		os.Stderr = stderr
		w.Close()
		msg, _ := io.ReadAll(r)
		r.Close()
		if code != 2 {
			t.Errorf("-scenario %s exited %d, want 2", name, code)
		}
		for _, b := range scenario.BuiltinNames() {
			if !strings.Contains(string(msg), b) {
				t.Errorf("-scenario %s: error %q does not list builtin %q", name, msg, b)
			}
		}
	}
}
