package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run the command itself: with ACTUNNEL_ARGS set, the
// test binary is actunnel with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ACTUNNEL_ARGS"); ok {
		os.Args = append([]string{"actunnel"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startActunnel starts an entry endpoint with extra flags and returns the
// process and a scanner over its log.
func startActunnel(t *testing.T, flags string) (*exec.Cmd, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "ACTUNNEL_ARGS=-mode entry -listen 127.0.0.1:0 -target 127.0.0.1:9 "+flags)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(20*time.Second, func() { cmd.Process.Kill() })
	t.Cleanup(func() { timer.Stop() })
	return cmd, bufio.NewScanner(stderr)
}

// TestPinnedLevelRefusals: a -static off the ladder, and -decider-seed beside
// -static N, exit 1 before the endpoint comes up; -static 2 alone serves
// until interrupted.
func TestPinnedLevelRefusals(t *testing.T) {
	for _, flags := range []string{"-static 9", "-static 2 -decider-seed 3"} {
		cmd, log := startActunnel(t, flags)
		for log.Scan() {
			if strings.Contains(log.Text(), "endpoint on") {
				t.Errorf("actunnel %s served: %s", flags, log.Text())
			}
		}
		var exit *exec.ExitError
		if err := cmd.Wait(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("actunnel %s: %v, want exit status 1", flags, err)
		}
	}

	cmd, log := startActunnel(t, "-static 2")
	for log.Scan() && !strings.Contains(log.Text(), "endpoint on") {
	}
	cmd.Process.Signal(os.Interrupt)
	if err := cmd.Wait(); err != nil {
		t.Errorf("actunnel -static 2: %v, want it served and exited on interrupt", err)
	}
}
