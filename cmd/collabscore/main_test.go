package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCollabscore compiles the command into a temp dir.
func buildCollabscore(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "collabscore")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStrategyFlagAcceptsPrintedNames: the name the run prints for a
// strategy is the name -strategy accepts.
func TestStrategyFlagAcceptsPrintedNames(t *testing.T) {
	bin := buildCollabscore(t)
	out, err := exec.Command(bin, "-n", "128", "-b", "8", "-diameter", "8",
		"-dishonest", "4", "-strategy", "cluster-hijackers").CombinedOutput()
	if err != nil {
		t.Fatalf("-strategy cluster-hijackers: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "corrupted 4 players with cluster-hijackers") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestBadFlagsExitTwo: unknown or rating-only strategies, -n or -b below
// 1, -dishonest outside [0, n] and a negative -diameter are usage errors:
// exit 2 with a message, naming the flag where flag is set. A panic also
// exits 2, hence the check on the output.
func TestBadFlagsExitTwo(t *testing.T) {
	bin := buildCollabscore(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-strategy", "hijackers"}, ""},
		{[]string{"-strategy", "exaggerators"}, ""},
		{[]string{"-b", "0"}, "-b"},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "64", "-dishonest", "200"}, "-dishonest"},
		{[]string{"-dishonest", "-3"}, "-dishonest"},
		{[]string{"-diameter", "-5"}, "-diameter"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: err = %v, want exit status 2\n%s", tc.args, err, out)
		}
		if strings.Contains(string(out), "panic") {
			t.Fatalf("%v panicked:\n%s", tc.args, out)
		}
		if !strings.Contains(string(out), tc.flag) {
			t.Fatalf("%v: message does not name %s:\n%s", tc.args, tc.flag, out)
		}
	}
}
