package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "EXPDRIVER_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte("-gb must be positive and -runs at least 1")) {
			t.Errorf("expdriver %s: %v, want exit status 2 with a usage message; output:\n%.300s", args, err, out)
		}
	}
}
