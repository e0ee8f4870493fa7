package store

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunChunksWindow blocks chunk 0 until the other workers have filled
// the window, and checks at every claim that the chunks claimed but not
// yet folded never number more than 2*workers, and that then sees the
// chunks in ascending order, each once and only after its fn returned.
func TestRunChunksWindow(t *testing.T) {
	const chunks = 40
	for _, workers := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			window := int64(2 * workers)
			full := window // chunk 0 waits until this many chunks are claimed
			if workers == 1 {
				full = 1 // inline: nothing runs beside chunk 0
			}
			var claimed, folded, peak atomic.Int64
			var returned [chunks]atomic.Bool
			filled := make(chan struct{})
			RunChunks(chunks, workers, func(c int) {
				n := claimed.Add(1)
				waiting := n - folded.Load()
				for p := peak.Load(); waiting > p && !peak.CompareAndSwap(p, waiting); p = peak.Load() {
				}
				if n == full {
					close(filled)
				}
				if c == 0 {
					<-filled
				}
				returned[c].Store(true)
			}, func(c int) {
				if !returned[c].Load() {
					t.Errorf("then(%d) before fn(%d) returned", c, c)
				}
				if int64(c) != folded.Load() {
					t.Errorf("then(%d) after %d chunks were folded", c, folded.Load())
				}
				folded.Add(1)
			})
			if folded.Load() != chunks {
				t.Fatalf("folded %d of %d chunks", folded.Load(), chunks)
			}
			if p := peak.Load(); p > window || p < full {
				t.Fatalf("peak claimed-but-unfolded = %d, want between %d and %d", p, full, window)
			}
		})
	}
}
