// Package cmdtest lets a command's own test binary stand in for the command,
// so smoke tests exercise main() — flag parsing, exit codes, output — without
// building anything.
package cmdtest

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

const beMain = "SPITFIRE_CMDTEST_BE_MAIN"

// Main is the package's TestMain body: in a process started by Run it calls
// main on the process's arguments, otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(beMain) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// Run re-executes the test binary as the command with args and returns its
// combined output and exit code.
func Run(t *testing.T, args ...string) (out string, exit int) {
	t.Helper()
	cmd := Command(args...)
	b, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(b), cmd.ProcessState.ExitCode()
}

// Command returns the test binary set up to run as the command with args, not
// yet started: for tests that need more than Run, such as a server to leave
// running and signal.
func Command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMain+"=1")
	return cmd
}
