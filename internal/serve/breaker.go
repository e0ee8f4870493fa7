package serve

import "sync"

// breakerState is the reload circuit breaker's position.
type breakerState int

const (
	// breakerClosed: reloads flow normally.
	breakerClosed breakerState = iota
	// breakerOpen: consecutive reload failures crossed the threshold;
	// load attempts are skipped for a cooldown counted in poll ticks
	// while the daemon keeps serving the last-good snapshot.
	breakerOpen
	// breakerHalfOpen: the cooldown elapsed and exactly one probe load
	// is in flight; its outcome closes or re-opens the breaker.
	breakerHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is the snapshot-reload circuit breaker. A torn or corrupt
// data directory (a legacy non-atomic writer caught mid-rewrite, a
// half-copied restore) makes every poll's load fail; without a breaker
// the daemon would burn a full parse of the broken directory per tick
// while queries contend with it. The breaker counts consecutive
// failures, opens at a threshold, and then skips load attempts for an
// exponentially growing cooldown before letting a single half-open
// probe through. Serving is never interrupted: the last-good
// generation stays published the whole time, and /readyz reports the
// breaker state so operators and balancers can see the daemon is
// degraded but alive.
//
// Cooldowns are counted in poll ticks, not seconds: internal/serve is
// clock-free by the walltime lint invariant, and tick counting makes
// breaker tests and the chaos harness fully deterministic.
type breaker struct {
	mu         sync.Mutex
	threshold  int // consecutive failures that open the breaker
	backoff0   int // initial cooldown, in poll ticks
	maxBackoff int // cooldown growth cap

	state       breakerState
	consecutive int // reload failures since the last success
	cooldown    int // ticks remaining before the next probe while open
	backoff     int // current cooldown length
	opens       int64
	skipped     int64 // load attempts suppressed while open
}

const (
	defaultBreakerThreshold = 3
	defaultBreakerBackoff   = 2
	maxBreakerBackoff       = 64
)

func newBreaker(threshold, backoff0 int) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if backoff0 <= 0 {
		backoff0 = defaultBreakerBackoff
	}
	return &breaker{threshold: threshold, backoff0: backoff0, maxBackoff: maxBreakerBackoff}
}

// tick is called once per poll that found the directory changed; it
// decides whether a load attempt may run now. While open it burns one
// cooldown tick, transitioning to half-open (probe allowed) when the
// cooldown hits zero.
func (b *breaker) tick() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		b.cooldown--
		if b.cooldown <= 0 {
			b.state = breakerHalfOpen
			return true
		}
		b.skipped++
		return false
	default: // half-open: one probe already outstanding
		b.skipped++
		return false
	}
}

// onSuccess records a completed reload: whatever the state, the
// directory is loadable again, so the breaker closes and the backoff
// resets.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecutive = 0
	b.cooldown = 0
	b.backoff = 0
}

// onFailure records a failed reload. The half-open probe failing
// re-opens with a doubled cooldown (capped); the closed breaker opens
// once consecutive failures reach the threshold.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	switch b.state {
	case breakerHalfOpen:
		b.backoff = min(b.backoff*2, b.maxBackoff)
		b.state = breakerOpen
		b.cooldown = b.backoff
		b.opens++
	case breakerClosed:
		if b.consecutive >= b.threshold {
			b.state = breakerOpen
			b.backoff = b.backoff0
			b.cooldown = b.backoff
			b.opens++
		}
	case breakerOpen:
		// A forced reload (POST /api/v1/reload) failed while open:
		// restart the current cooldown, no extra growth.
		b.cooldown = b.backoff
	}
}

// breakerDTO is the /metrics and /readyz view of the breaker.
type breakerDTO struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Opens               int64  `json:"opens"`
	ReloadsSkipped      int64  `json:"reloads_skipped"`
	CooldownPolls       int    `json:"cooldown_polls"`
}

func (b *breaker) dto() breakerDTO {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerDTO{
		State:               b.state.String(),
		ConsecutiveFailures: b.consecutive,
		Opens:               b.opens,
		ReloadsSkipped:      b.skipped,
		CooldownPolls:       b.cooldown,
	}
}
