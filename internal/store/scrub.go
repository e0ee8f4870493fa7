package store

// Background shard scrubbing (DESIGN.md §15).
//
// A loaded shard is verified once, at load time — but disks rot after
// the load: a flipped bit in a committed shard changes neither the
// file's size nor its mtime, so the poll fingerprint never notices and
// the next reload would only read the file when its manifest entry
// changes (which bit rot does not do). The scrubber closes that hole:
// it re-reads shard bytes from disk on a byte budget per poll tick,
// round-robin across the shard set, and reports any shard whose bytes
// no longer hash to the manifest entry (readShard: length and CRC, no
// decode — the manifest hash is authoritative for the bytes). The
// budget bounds the extra I/O per tick (one slow disk must not starve
// the poll loop); a full pass over the set is a "sweep", counted so
// operators can see rot detection latency (set size / budget ticks).

// Scrubber incrementally re-verifies a fixed shard set against its
// manifest entries. It is a cursor over one snapshot generation's
// entries: the serve layer builds a fresh Scrubber per published
// snapshot (over the shards actually held, so quarantined days are
// not re-found every tick). Not safe for concurrent use; the caller
// serializes ticks.
type Scrubber struct {
	dir     string
	entries []ShardInfo
	open    Opener

	pos      int
	verified int64
}

// NewScrubber builds a scrubber over entries in dir; nil open means
// os.Open.
func NewScrubber(dir string, entries []ShardInfo, open Opener) *Scrubber {
	if open == nil {
		open = defaultOpener
	}
	return &Scrubber{dir: dir, entries: entries, open: open}
}

// Tick verifies shards starting at the cursor until at least
// budgetBytes of shard data have been read (always at least one shard
// when the set is non-empty), or one full pass completes, whichever
// comes first; a negative budget verifies the entire set. It returns
// the shards that failed verification and how many full sweeps
// completed during this tick.
func (sc *Scrubber) Tick(budgetBytes int64) (findings []ShardFault, sweeps int) {
	n := len(sc.entries)
	if n == 0 {
		return nil, 0
	}
	var read int64
	for checked := 0; checked < n; checked++ {
		e := sc.entries[sc.pos]
		if _, err := readShard(sc.dir, e, sc.open); err != nil {
			findings = append(findings, ShardFault{Info: e, Err: err})
		}
		sc.verified++
		read += e.Size
		sc.pos++
		if sc.pos == n {
			sc.pos = 0
			sweeps++
		}
		if budgetBytes >= 0 && read >= budgetBytes {
			break
		}
	}
	return findings, sweeps
}

// Verified returns the total shard verifications performed.
func (sc *Scrubber) Verified() int64 { return sc.verified }
