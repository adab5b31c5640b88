package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with EXPDRIVER_ARGS set, the
// test binary is expdriver with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPDRIVER_ARGS"); ok {
		os.Args = append([]string{"expdriver"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestVolumeAndRunsMustBePositive: the experiments take -gb and -runs as
// given, so a volume or run count below one is a usage error (exit 2).
func TestVolumeAndRunsMustBePositive(t *testing.T) {
	for _, args := range []string{"-gb 0 -fig4", "-gb -1 -fig4", "-runs 0 -table2"} {
		wantUsageError(t, "", args, "-gb must be positive and -runs at least 1")
	}
}

// wantUsageError runs expdriver with args in dir and requires exit status 2
// with want in its output.
func wantUsageError(t *testing.T, dir, args, want string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "EXPDRIVER_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte(want)) {
		t.Errorf("expdriver %s: %v, want exit status 2 with %q; output:\n%.300s", args, err, want, out)
	}
}

// TestModeRefusesFlagsItDoesNotRead: each mode — the paper run,
// -decider-matrix, -scenario — reads its own flags, and a flag set for
// another mode exits 2 naming it before anything runs or is written. The
// matrix's never-probe "cheatstick" row is no policy a scenario can select.
func TestModeRefusesFlagsItDoesNotRead(t *testing.T) {
	for args, named := range map[string]string{
		"-fig1 -json-out x.json":                                "-json-out",
		"-fig1 -decider bandit":                                 "-decider",
		"-fig1 -rig oscillate -max-wall 1s -metrics-out m.json": "-max-wall, -metrics-out, -rig",
		"-decider-matrix -scenario lossy -csv out":              "-csv, -scenario",
		"-decider-matrix -gb 1":                                 "-gb",
		"-scenario lossy -runs 2":                               "-runs",
		"-scenario lossy -decider cheatstick":                   `unknown decider policy "cheatstick"`,
	} {
		dir := t.TempDir()
		wantUsageError(t, dir, args, named)
		if left, _ := os.ReadDir(dir); len(left) > 0 {
			t.Errorf("expdriver %s wrote %s", args, left[0].Name())
		}
	}
}

// goldenSection matches a section header of the harness golden file.
var goldenSection = regexp.MustCompile(`(?m)^=== (\S+) ===\n`)

// TestPaperLoopMatchesGolden runs the command's own loop over the harness
// table and holds its stdout and CSV files to the sections the harness
// golden pins for the same inputs. The claims' worst DYNAMIC gap must be the
// largest "dyn gap" cell of the Table II printed above it.
func TestPaperLoopMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "harness.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	heads := goldenSection.FindAllSubmatchIndex(data, -1)
	for i, h := range heads {
		end := len(data)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		golden[string(data[h[2]:h[3]])] = string(data[h[1]:end])
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EXPDRIVER_ARGS=-gb 2 -runs 2 -seed 7 -fig2 -table2 -claims -csv "+dir)
	out, err := cmd.Output()
	code, wantCode := 0, 0
	if strings.Contains(golden["claims"], "[FAIL]") {
		wantCode = 1
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != wantCode {
		t.Fatalf("expdriver exited %d, want %d", code, wantCode)
	}
	want := golden["fig2"] + golden["table2"] + golden["claims"]
	if got, _, _ := strings.Cut(string(out), "--- end-of-run process metrics ---"); got != want {
		t.Errorf("stdout differs from the golden's fig2, table2 and claims sections:\n%s", got)
	}
	for _, name := range []string{"fig2_net_throughput.csv", "table2_completion_times.csv"} {
		csv, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(csv) != golden[name] {
			t.Errorf("%s differs from the golden's section", name)
		}
	}

	worst, percent := -1, regexp.MustCompile(`(-?\d+)%`)
	for _, line := range strings.Split(golden["table2"], "\n") {
		if strings.HasPrefix(line, "dyn gap") {
			for _, m := range percent.FindAllStringSubmatch(line, -1) {
				gap, _ := strconv.Atoi(m[1])
				worst = max(worst, gap)
			}
		}
	}
	if claim := "worst DYNAMIC gap " + strconv.Itoa(worst) + "%"; worst < 0 || !strings.Contains(string(out), claim) {
		t.Errorf("the claims do not report %q, the largest dyn gap printed above them", claim)
	}
}
