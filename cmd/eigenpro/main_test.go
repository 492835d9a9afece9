package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started with
// "-- eigenpro args...", so a test can run the CLI as a child process and
// read its exit status.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 && args[0] == "eigenpro" {
		os.Args = args
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownArgumentsExit2 checks that an unknown subcommand (top among
// them) or a word left after the flags exits 2 with usage on stderr
// before anything runs, rather than falling through to the default
// training run.
func TestUnknownArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"top", "-once"},
		{"frobnicate"},
		{"-dataset", "susy", "extra"},
		{"serve", "-n", "10", "extra"},
		{"train", "extra"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"--", "eigenpro"}, args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		name := strings.Join(args, " ")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("eigenpro %s: %v, want exit status 2", name, err)
		}
		if !strings.Contains(stderr.String(), "Usage of") {
			t.Errorf("eigenpro %s: no usage on stderr:\n%s", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("eigenpro %s ran: stdout %q", name, stdout.String())
		}
	}
}
