package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// ripsbenchArgs, when set, makes the test binary behave as ripsbench
// itself with that one argument: main calls os.Exit, so the exit code
// of an unknown subcommand can only be observed from outside.
const ripsbenchArgs = "RIPSBENCH_TEST_ARG"

func TestMain(m *testing.M) {
	if arg, ok := os.LookupEnv(ripsbenchArgs); ok {
		os.Args = []string{"ripsbench", arg}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRetiredSubcommandsAreUnknown: the wall-clock harnesses that
// `go run ./bench` replaced are not ripsbench experiments — each name
// takes the usage path and exits 2 — so a second place where a
// performance number comes from cannot drift back in unnoticed.
func TestRetiredSubcommandsAreUnknown(t *testing.T) {
	for _, sub := range []string{"parscale", "serve", "cluster"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), ripsbenchArgs+"="+sub)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("ripsbench %s: err = %v, want exit status 2\n%s", sub, err, out)
			continue
		}
		usage, _, _ := strings.Cut(string(out), "\n")
		if !strings.HasPrefix(usage, "usage: ripsbench") || strings.Contains(usage, sub) {
			t.Errorf("ripsbench %s: first line %q, want the usage line, not naming %s", sub, usage, sub)
		}
	}
}
