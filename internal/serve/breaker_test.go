package serve

import "testing"

// currentState returns the breaker's state alone.
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// TestBreakerLifecycle walks the full state machine: closed under the
// threshold, open at it, cooldown ticks to a half-open probe, a failed
// probe doubles the backoff, a successful probe closes and resets.
func TestBreakerLifecycle(t *testing.T) {
	b := newBreaker(3, 2)

	// Two failures: still closed, loads still allowed.
	b.onFailure()
	b.onFailure()
	if st := b.currentState(); st != breakerClosed {
		t.Fatalf("state %v after 2 failures, want closed", st)
	}
	if !b.tick() {
		t.Fatal("closed breaker refused a load")
	}

	// Third failure opens with the initial cooldown (2 ticks).
	b.onFailure()
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("state %v after threshold, want open", st)
	}
	if b.tick() {
		t.Fatal("open breaker allowed a load on tick 1")
	}
	if !b.tick() {
		t.Fatal("cooldown elapsed but no half-open probe allowed")
	}
	if st := b.currentState(); st != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", st)
	}
	// While the probe is outstanding no second probe runs.
	if b.tick() {
		t.Fatal("half-open breaker allowed a second probe")
	}

	// Failed probe: reopen with doubled cooldown (4 ticks).
	b.onFailure()
	if st := b.currentState(); st != breakerOpen {
		t.Fatalf("state %v after failed probe, want open", st)
	}
	for i := 0; i < 3; i++ {
		if b.tick() {
			t.Fatalf("open breaker allowed a load on doubled-cooldown tick %d", i+1)
		}
	}
	if !b.tick() {
		t.Fatal("doubled cooldown never elapsed")
	}

	// Successful probe closes and resets everything.
	b.onSuccess()
	d := b.dto()
	if d.State != "closed" || d.ConsecutiveFailures != 0 || d.CooldownPolls != 0 {
		t.Errorf("dto after success = %+v", d)
	}
	if d.Opens != 2 {
		t.Errorf("opens = %d, want 2", d.Opens)
	}
	if d.ReloadsSkipped == 0 {
		t.Error("no skipped loads recorded")
	}
}

// TestBreakerBackoffCap: repeated failed probes stop doubling at the
// cap.
func TestBreakerBackoffCap(t *testing.T) {
	b := newBreaker(1, 2)
	b.onFailure() // opens, backoff 2
	for i := 0; i < 12; i++ {
		// Burn the cooldown to half-open, then fail the probe.
		for !b.tick() {
		}
		b.onFailure()
	}
	b.mu.Lock()
	backoff := b.backoff
	b.mu.Unlock()
	if backoff != maxBreakerBackoff {
		t.Errorf("backoff = %d, want capped at %d", backoff, maxBreakerBackoff)
	}
}

// TestBreakerDefaults: zero config values take the documented
// defaults.
func TestBreakerDefaults(t *testing.T) {
	b := newBreaker(0, 0)
	if b.threshold != defaultBreakerThreshold || b.backoff0 != defaultBreakerBackoff {
		t.Errorf("defaults = %d/%d, want %d/%d",
			b.threshold, b.backoff0, defaultBreakerThreshold, defaultBreakerBackoff)
	}
}

// TestBreakerFailureWhileOpen: a forced reload failing while open
// restarts the cooldown without growing the backoff.
func TestBreakerFailureWhileOpen(t *testing.T) {
	b := newBreaker(1, 2)
	b.onFailure() // open, cooldown 2
	if b.tick() { // cooldown 1
		t.Fatal("open breaker allowed a load")
	}
	b.onFailure() // forced reload failed: cooldown back to 2
	d := b.dto()
	if d.CooldownPolls != 2 || d.State != "open" || d.Opens != 1 {
		t.Errorf("dto = %+v, want cooldown restarted at 2, still open, 1 open", d)
	}
}
