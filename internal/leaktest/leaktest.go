// Package leaktest is test support: the goroutine-leak gate a package's
// TestMain runs after its tests.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long Main waits for the module's goroutines to end
// after the last test.
const settle = 3 * time.Second

// Main runs the tests and exits, failing the package when they leave a
// goroutine of this module running: what a test starts is the test's
// to stop. The gate checks once per process, after every test of every
// -count round, so a leak that a round repeats adds up.
func Main(m *testing.M) {
	code := m.Run()
	if leaked := leakedGoroutines(); code == 0 && len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "%d goroutines outlived the tests:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// leakedGoroutines waits up to settle for the goroutines that run, or
// were created by, a function of this module to end, and returns the
// stacks of those still running; the caller's own is not counted.
func leakedGoroutines() []string {
	deadline := time.Now().Add(settle)
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		var leaked []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			for _, line := range strings.Split(g, "\n") {
				if strings.HasPrefix(strings.TrimPrefix(line, "created by "), "mxmap/") {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
