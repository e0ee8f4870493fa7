package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Serve-layer fault kinds: the failure modes the query daemon
// (internal/serve) must survive, as opposed to the archive-corruption
// kinds the ingest faces. DESIGN.md §13 is the taxonomy.
const (
	// KindTornSnapshot overwrites MANIFEST.supremm — the root every
	// snapshot load starts from — with a prefix of its bytes, in place
	// and without a rename: the footprint of a non-atomic writer (or a
	// half-copied restore) caught mid-rewrite. The daemon's reload must
	// fail the decode, keep serving the last-good generation, and trip
	// the reload breaker.
	KindTornSnapshot Kind = "torn-snapshot"
	// KindSlowRead delays snapshot-file reads (an overloaded shared
	// filesystem); queries must keep answering from the current
	// in-memory snapshot while a reload crawls.
	KindSlowRead Kind = "slow-read"
	// KindReloadStorm rewrites the data directory rapidly and
	// non-atomically, churning the fingerprint so the poll loop sees a
	// "new batch" every tick and may catch files mid-write.
	KindReloadStorm Kind = "reload-storm"
	// KindSlowClient is a client that reads its response a few bytes at
	// a time or disconnects mid-body; the daemon's goroutines and
	// admission slots must not leak on its account.
	KindSlowClient Kind = "slow-client"
	// KindTornShard overwrites one shard-<day>.supremm with a prefix of
	// its bytes while MANIFEST.supremm keeps naming the healthy version
	// — a shard writer killed mid-rewrite. The reload must fail the
	// manifest verification (size/hash mismatch), keep serving the
	// last-good generation, and trip the reload breaker.
	KindTornShard Kind = "torn-shard"
	// KindStaleManifest deletes a shard file the manifest still lists —
	// a manifest landing without its shard (or a shard lost to cleanup/
	// restore skew). Same required outcome: failed reload, last-good
	// generation keeps serving, /readyz goes not-ready once the breaker
	// opens.
	KindStaleManifest Kind = "stale-manifest"
	// KindBitRot flips bytes inside a committed shard file without
	// changing its size — and with its mtime restored afterwards, so the
	// poll fingerprint (size + mtime) is unchanged and no reload fires.
	// Silent media corruption: only re-reading the bytes and checking
	// them against the manifest hash (the scrubber) can catch it, after
	// which the daemon must quarantine the day and serve degraded.
	KindBitRot Kind = "bit-rot"
)

// ServeKinds lists the serve-layer fault classes.
func ServeKinds() []Kind {
	return []Kind{KindTornSnapshot, KindSlowRead, KindReloadStorm, KindSlowClient,
		KindTornShard, KindStaleManifest, KindBitRot}
}

// TornWrite overwrites path in place with the first frac of data, no
// temp file and no rename — exactly the torn state a non-atomic writer
// leaves when killed mid-rewrite. frac is clamped to [0,1).
func TornWrite(path string, data []byte, frac float64) error {
	if frac < 0 {
		frac = 0
	}
	if frac >= 1 {
		frac = 0.99
	}
	n := int(frac * float64(len(data)))
	if n >= len(data) {
		n = len(data) - 1
	}
	if n < 0 {
		n = 0
	}
	return os.WriteFile(path, data[:n], 0o644)
}

// SlowOpener wraps a file opener so reads of paths matching slow are
// preceded by delay() per Read call — an overloaded parallel
// filesystem, injected at serve.Config.Open. The delay is a caller
// -supplied func so this package stays clock-free and tests stay
// deterministic (a channel receive, a counter, or a real sleep).
func SlowOpener(base func(path string) (io.ReadCloser, error), slow func(path string) bool,
	delay func()) func(path string) (io.ReadCloser, error) {

	return func(path string) (io.ReadCloser, error) {
		rc, err := base(path)
		if err != nil || slow == nil || !slow(path) {
			return rc, err
		}
		return &slowReader{rc: rc, delay: delay}, nil
	}
}

type slowReader struct {
	rc    io.ReadCloser
	delay func()
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.delay != nil {
		s.delay()
	}
	return s.rc.Read(p)
}

func (s *slowReader) Close() error { return s.rc.Close() }

// ServeChaos drives serve-layer faults against one data directory. It
// holds the known-good bytes of every data file so it can tear them
// and heal them deterministically; the same seed produces the same
// sequence of torn fractions. Safe for concurrent use.
type ServeChaos struct {
	dir string

	mu     sync.Mutex
	rng    *rand.Rand
	good   map[string][]byte
	counts map[Kind]int
}

// NewServeChaos captures dir's current files as the known-good state.
// good maps file name (e.g. "MANIFEST.supremm") to its healthy content.
func NewServeChaos(seed int64, dir string, good map[string][]byte) *ServeChaos {
	g := make(map[string][]byte, len(good))
	for name, b := range good {
		g[name] = append([]byte(nil), b...)
	}
	return &ServeChaos{
		dir:    dir,
		rng:    rand.New(rand.NewSource(seed)),
		good:   g,
		counts: make(map[Kind]int),
	}
}

// manifestFile is store.ManifestFile; this package does not import the
// store it injects faults under.
const manifestFile = "MANIFEST.supremm"

// TearSnapshot tears the manifest in place, returning the fraction
// kept. The torn prefix always destroys the decode: the manifest ends
// in a CRC over everything before it, so any proper prefix fails.
func (c *ServeChaos) TearSnapshot() (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.good[manifestFile]
	if !ok {
		return 0, fmt.Errorf("faultinject: no known-good %s", manifestFile)
	}
	frac := 0.05 + 0.9*c.rng.Float64()
	c.counts[KindTornSnapshot]++
	return frac, TornWrite(filepath.Join(c.dir, manifestFile), data, frac)
}

// shardNames returns the known-good shard file names, sorted, so the
// seeded rng picks victims deterministically.
func (c *ServeChaos) shardNames() []string {
	var names []string
	for name := range c.good {
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".supremm") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TearShard tears one shard file in place (seeded pick, seeded
// fraction), leaving MANIFEST.supremm untouched — the manifest now
// describes bytes that no longer exist. Returns the victim file name
// and the fraction kept. TornWrite always leaves a strict prefix, so
// the file's size disagrees with its manifest entry and even an
// incremental reload holding the healthy shard in memory must notice.
func (c *ServeChaos) TearShard() (string, float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.shardNames()
	if len(names) == 0 {
		return "", 0, fmt.Errorf("faultinject: no known-good shard files")
	}
	name := names[c.rng.Intn(len(names))]
	frac := 0.05 + 0.9*c.rng.Float64()
	c.counts[KindTornShard]++
	return name, frac, TornWrite(filepath.Join(c.dir, name), c.good[name], frac)
}

// RotFile flips bytes in the named shard file (seeded positions, seeded
// masks) without changing its size, then restores the file's mtime so
// the directory fingerprint cannot see the damage. At least one byte is
// flipped, each xored with a non-zero mask, so the content — and its
// CRC32, which detects all single-byte errors — always differs from the
// known-good bytes.
func (c *ServeChaos) RotFile(name string, flips int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.good[name]; !ok {
		return fmt.Errorf("faultinject: no known-good %s", name)
	}
	return c.rotLocked(name, flips)
}

func (c *ServeChaos) rotLocked(name string, flips int) error {
	if flips < 1 {
		flips = 1
	}
	path := filepath.Join(c.dir, name)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	data := append([]byte(nil), c.good[name]...)
	if len(data) == 0 {
		return fmt.Errorf("faultinject: %s is empty, nothing to rot", name)
	}
	for i := 0; i < flips; i++ {
		pos := c.rng.Intn(len(data))
		data[pos] ^= byte(1 + c.rng.Intn(255)) // non-zero mask: the byte changes
	}
	if bytes.Equal(data, c.good[name]) {
		// Two seeded flips can land on one byte and cancel; the fault
		// must actually corrupt.
		data[0] ^= 0x01
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	// Put the mtime back: rot is silent, the fingerprint must not
	// notice. (Writing the same byte count keeps the size unchanged.)
	if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
		return err
	}
	c.counts[KindBitRot]++
	return nil
}

// StaleManifest deletes one shard file (seeded pick) while the
// manifest keeps listing it, returning the victim file name.
func (c *ServeChaos) StaleManifest() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.shardNames()
	if len(names) == 0 {
		return "", fmt.Errorf("faultinject: no known-good shard files")
	}
	name := names[c.rng.Intn(len(names))]
	c.counts[KindStaleManifest]++
	return name, os.Remove(filepath.Join(c.dir, name))
}

// Storm rewrites every known-good file non-atomically, rewrites times
// over — fingerprint churn with windows where a reader can catch a
// file half-written, the shape of a legacy ingest rewriting in place.
func (c *ServeChaos) Storm(rewrites int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.good))
	for name := range c.good {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := 0; i < rewrites; i++ {
		for _, name := range names {
			c.counts[KindReloadStorm]++
			if err := os.WriteFile(filepath.Join(c.dir, name), c.good[name], 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// Heal atomically restores every known-good file (temp + rename, the
// cmd/ingest discipline), returning the directory to a loadable state
// in one step per file.
func (c *ServeChaos) Heal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.good))
	for name := range c.good {
		names = append(names, name)
	}
	sort.Strings(names)
	return c.healLocked(names)
}

// HealFiles atomically restores only the named known-good files —
// self-heal chaos scenarios use it to give the daemon back a usable
// monolithic backing (jobs.supremm) while leaving a rotted shard for
// the daemon's own repair path to rebuild.
func (c *ServeChaos) HealFiles(names ...string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		if _, ok := c.good[name]; !ok {
			return fmt.Errorf("faultinject: no known-good %s", name)
		}
	}
	return c.healLocked(names)
}

func (c *ServeChaos) healLocked(names []string) error {
	for _, name := range names {
		dst := filepath.Join(c.dir, name)
		tmp, err := os.CreateTemp(c.dir, "."+name+".heal*")
		if err != nil {
			return err
		}
		if _, err := tmp.Write(c.good[name]); err != nil {
			_ = tmp.Close() // already failing; surface the write error
			_ = os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			_ = os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), dst); err != nil {
			_ = os.Remove(tmp.Name())
			return err
		}
	}
	return nil
}

// Counts reports how many faults of each kind this chaos run injected.
func (c *ServeChaos) Counts() map[Kind]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Kind]int, len(c.counts))
	for k, n := range c.counts {
		out[k] = n
	}
	return out
}

// SlowClient issues a raw HTTP/1.0 GET for path against addr and reads
// at most readBytes of the response one byte at a time, calling delay()
// between reads, then closes the connection — possibly mid-body. The
// daemon under test must tolerate the abandoned connection without
// leaking a goroutine or an admission slot.
func SlowClient(addr, path string, readBytes int, delay func()) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: chaos\r\n\r\n", path); err != nil {
		return err
	}
	buf := make([]byte, 1)
	for i := 0; i < readBytes; i++ {
		if delay != nil {
			delay()
		}
		if _, err := conn.Read(buf); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}
