// Package leakcheck is a test helper that fails a test when it leaks
// goroutines. The serve layer's overload controls (admission queue,
// request deadlines, drain) all manage goroutine lifetimes; every
// concurrency test registers a check so a forgotten waiter or an
// abandoned handler shows up as a failure with stack traces, not as a
// slow leak in production.
//
// It lives outside internal/serve so cmd/* tests can use it too, and
// it is test-only by convention: importing it from production code
// would drag testing.TB into the binary.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Check records the current goroutine count and registers a cleanup
// that fails the test if, after a settling window, more goroutines are
// running than at registration. Register it FIRST in the test (cleanups
// run LIFO) so servers and clients registered later are torn down
// before the count is taken.
//
// The settling loop tolerates runtime-managed goroutines finishing
// asynchronously (http connection teardown, timer goroutines): it polls
// until the count returns to the baseline or the window expires.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("leakcheck: %d goroutines at exit, %d at start; stacks:\n%s",
			n, base, buf)
	})
}
