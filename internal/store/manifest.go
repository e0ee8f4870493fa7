package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
)

// Shard manifest format ("MANIFEST.supremm", DESIGN.md §14).
//
// The job store is time-partitioned into one immutable columnar file
// per job-end epoch day ("shard-<epochday>.supremm", each in the
// jobs.supremm codec), and the manifest is the authoritative list of
// the partitions one ingest batch produced: for each shard its
// partition key, row count, end-time range, file size and content
// hash, little-endian, followed by a CRC32 over everything before it.
//
// Layout (the header is appendHeader's, shared with the snapshot):
//
//	magic "SUPRMMS1" | version u32 | flags u32 | count u64
//	count × entry { id i64 | rows u64 | minEnd i64 | maxEnd i64 | size u64 | hash u32 }
//	crc32 u32 (IEEE, over all preceding bytes)
//
// Decoding runs on the snapshot's sticky decoder and is as strict: the
// CRC must match, the entry region must be exactly count entries long
// (no trailing bytes), shard IDs must be strictly ascending (no
// duplicates), every shard must hold at least one row, and each
// entry's end-time range must lie inside its own day — which
// structurally rejects overlapping shard time ranges.
// encode(decode(m)) == m for every accepted m.
const (
	manifestMagic   = "SUPRMMS1"
	manifestVersion = 1
	// manifestEntryLen is one fixed-width shard entry.
	manifestEntryLen = 8 + 8 + 8 + 8 + 8 + 4
	// manifestMaxID bounds |shard ID| so id*SecondsPerDay can never
	// overflow int64 on hostile input (2^40 days is ~3e9 years).
	manifestMaxID = 1 << 40
)

// SecondsPerDay is the shard partition width: one epoch day.
const SecondsPerDay = 86400

// A data directory's fixed file names. Every reader loads the
// manifest and the day shards it names (ShardFileName); JobsFile, and
// JobsColumnarFile where one was put there, are the monolithic
// backings shard repair rebuilds a lost day from; SeriesFile is the
// system series and QualityFile the ingest data-quality report.
// AccountingFile is the scheduler's accounting log that cmd/simulate
// writes beside them and xdmod's wait-time report reads.
const (
	ManifestFile     = "MANIFEST.supremm"
	JobsFile         = "jobs.jsonl"
	JobsColumnarFile = "jobs.supremm"
	SeriesFile       = "series.jsonl"
	QualityFile      = "quality.json"
	AccountingFile   = "accounting.log"
)

// ShardFileName returns the shard file name for an epoch day.
func ShardFileName(day int64) string { return fmt.Sprintf("shard-%d.supremm", day) }

// shardGlob matches every name ShardFileName returns.
const shardGlob = "shard-*.supremm"

// ShardFiles returns the paths of the shard files in dir, sorted; a
// directory that cannot be read has none.
func ShardFiles(dir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, shardGlob))
	slices.Sort(paths)
	return paths
}

// EpochDay returns the epoch day containing the unix timestamp
// (floored division, so pre-1970 timestamps land in negative days).
func EpochDay(ts int64) int64 {
	d := ts / SecondsPerDay
	if ts%SecondsPerDay < 0 {
		d--
	}
	return d
}

// ShardInfo is one manifest entry: the identity and integrity metadata
// of a single shard file.
type ShardInfo struct {
	// ID is the epoch day of every job end in the shard.
	ID int64
	// Rows is the shard's record count (always >= 1; empty days have no
	// shard).
	Rows int
	// MinEnd and MaxEnd bound the shard's job-end timestamps, used for
	// whole-shard time pruning without opening the file.
	MinEnd int64
	MaxEnd int64
	// Size is the shard file's byte length and Hash the CRC32 (IEEE) of
	// its full contents; loads verify both before trusting the decode.
	Size int64
	Hash uint32
}

// ManifestSize is the length of a manifest of n entries.
func ManifestSize(n int) int64 { return int64(headerLen + n*manifestEntryLen + 4) }

// EncodeManifest serializes manifest entries. Entries must already be
// in ascending ID order (WriteShardDir's partition order).
func EncodeManifest(entries []ShardInfo) []byte {
	buf := make([]byte, 0, ManifestSize(len(entries)))
	buf = appendHeader(buf, manifestMagic, manifestVersion, len(entries))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Rows))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.MinEnd))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.MaxEnd))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Size))
		buf = binary.LittleEndian.AppendUint32(buf, e.Hash)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeManifest parses and validates manifest bytes. Any structural
// damage — truncation, checksum mismatch, trailing bytes, duplicate or
// unordered shard IDs, hostile counts or out-of-day time ranges — is
// an error, never a panic and never a silently wrong shard list.
func DecodeManifest(data []byte) ([]ShardInfo, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("store: manifest is %d bytes, shorter than any valid manifest", len(data))
	}
	body := data[:len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("store: manifest checksum mismatch (%08x != %08x)", got, sum)
	}
	d := decoder{data: body}
	count := d.header("manifest", manifestMagic, manifestVersion)
	// The entry region must hold exactly count entries — no trailing
	// bytes: checked against the remaining bytes before the allocation
	// is sized from it.
	if count > uint64(d.remaining())/manifestEntryLen {
		d.fail("store: manifest claims %d shards in %d bytes", count, d.remaining())
	}
	if int(count)*manifestEntryLen != d.remaining() {
		d.fail("store: manifest has %d entry bytes, want %d for %d shards",
			d.remaining(), int(count)*manifestEntryLen, count)
	}
	if d.err != nil {
		return nil, d.err
	}
	entries := make([]ShardInfo, 0, count)
	for k := uint64(0); k < count && d.err == nil; k++ {
		e := ShardInfo{ID: int64(d.uint64())}
		rows := d.uint64()
		e.MinEnd, e.MaxEnd = int64(d.uint64()), int64(d.uint64())
		size := d.uint64()
		e.Hash = d.uint32()
		e.Rows, e.Size = int(rows), int64(size)
		switch {
		case e.ID < -manifestMaxID || e.ID > manifestMaxID:
			d.fail("store: manifest shard id %d out of range", e.ID)
		case rows == 0:
			d.fail("store: manifest shard %d claims zero rows", e.ID)
		case size > uint64(1)<<62 || rows > size/4:
			// A shard row costs far more than 4 bytes in the columnar
			// codec; a count past this is hostile, not merely corrupt.
			d.fail("store: manifest shard %d claims %d rows in %d bytes", e.ID, rows, size)
		case len(entries) > 0 && e.ID <= entries[len(entries)-1].ID:
			d.fail("store: manifest shard ids not strictly ascending (%d after %d)",
				e.ID, entries[len(entries)-1].ID)
		default:
			// The shard's end-time range must lie inside its own day; this
			// also makes overlapping time ranges between shards impossible.
			if dayLo := e.ID * SecondsPerDay; e.MinEnd < dayLo || e.MaxEnd >= dayLo+SecondsPerDay || e.MinEnd > e.MaxEnd {
				d.fail("store: manifest shard %d time range [%d,%d] outside its day [%d,%d)",
					e.ID, e.MinEnd, e.MaxEnd, dayLo, dayLo+SecondsPerDay)
			}
		}
		entries = append(entries, e)
	}
	if d.err != nil {
		return nil, d.err
	}
	return entries, nil
}

// ReorderByEndDay stably reorders the store's rows so they are grouped
// by job-end epoch day, days ascending, preserving the existing order
// within each day. It is for the exports: jobs.jsonl and jobs.supremm
// then list the rows in the order the day shards concatenate to, the
// order every query answers in. Nothing else depends on it —
// WriteShardDir and RepairShard each pick a day's rows out in their
// existing order, so shards and their repair come out byte-identical
// from a grouped or an ungrouped store.
func (s *Store) ReorderByEndDay() {
	_, dayRows := s.c.rowsByEndDay()
	*s = Store{c: *s.c.gather(slices.Concat(dayRows...))}
}

// rowsByEndDay buckets the row ids by job-end epoch day: days
// ascending, and within each day the rows in their existing order.
func (c *Columns) rowsByEndDay() (days []int64, dayRows [][]int) {
	byDay := make(map[int64][]int)
	for i, end := range c.End {
		d := EpochDay(end)
		byDay[d] = append(byDay[d], i)
	}
	for d := range byDay {
		days = append(days, d)
	}
	slices.Sort(days)
	dayRows = make([][]int, len(days))
	for k, d := range days {
		dayRows[k] = byDay[d]
	}
	return days, dayRows
}

// partitionByEndDay splits the store into per-epoch-day columnar
// partitions, days ascending, preserving row order within each day.
func (s *Store) partitionByEndDay() ([]int64, []*Columns) {
	days, dayRows := s.c.rowsByEndDay()
	cols := make([]*Columns, len(days))
	for k, rows := range dayRows {
		cols[k] = s.c.gather(rows)
	}
	return days, cols
}

// WriteShardDir writes the store's time-partitioned form into dir: one
// shard-<epochday>.supremm per job-end day plus MANIFEST.supremm. Each
// file lands atomically (temp + fsync + rename, see AtomicWriteFile),
// every shard before the manifest, and one directory sync makes the
// shards' renames durable before the manifest's, so a poller never sees
// a manifest naming a shard that has not landed; shard files from an
// earlier batch whose day dropped out of the manifest are removed
// afterwards, along with any quarantine leftovers (*.quarantined
// files, the QUARANTINE.supremm log) and orphaned temp files from a
// killed writer or scrubber — a fresh batch supersedes whatever
// healing state the previous generation accumulated. Shard content is
// a pure function of the rows, so an unchanged day encodes to the bytes
// already on disk and its file is left alone: an append costs one shard
// and the manifest, not the history. The witness is the file's content,
// never its stat: a same-size bit-rotted or torn shard is rewritten.
//
// Days are encoded and compared on the calling goroutine, in day order.
// The first changed day lands there too (an append changes one or two);
// the later ones land on at most GOMAXPROCS goroutines, which overlap
// their fsyncs and bound the payloads held at once. So before the
// manifest lands, the first changed day and any subset of the others
// may be new on disk, each ahead of the manifest (DESIGN.md §14.1). On
// a failed landing the first error is returned and no manifest is
// written.
func WriteShardDir(dir string, s *Store) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	days, cols := s.partitionByEndDay()
	entries := make([]ShardInfo, len(days))
	keep := make(map[string]bool, len(days)+1)
	var (
		changed int
		slots   = make(chan struct{}, runtime.GOMAXPROCS(0))
		failed  = make(chan error, 1) // the first failed landing's error
		landing sync.WaitGroup
	)
	for i, day := range days {
		payload := EncodeColumns(cols[i])
		name := ShardFileName(day)
		entries[i] = ShardInfo{
			ID:     day,
			Rows:   cols[i].Len(),
			MinEnd: cols[i].minEnd,
			MaxEnd: cols[i].maxEnd,
			Size:   int64(len(payload)),
			Hash:   crc32.ChecksumIEEE(payload),
		}
		keep[name] = true
		if fileHolds(filepath.Join(dir, name), payload) {
			continue
		}
		if changed++; changed == 1 {
			if err := renameInto(dir, name, writeBytes(payload)); err != nil {
				return err
			}
			continue
		}
		if len(failed) > 0 {
			break
		}
		slots <- struct{}{}
		landing.Add(1)
		go func() {
			defer landing.Done()
			if err := renameInto(dir, name, writeBytes(payload)); err != nil {
				select {
				case failed <- err:
				default:
				}
			}
			<-slots
		}()
	}
	landing.Wait()
	select {
	case err := <-failed:
		return err
	default:
	}
	if changed > 0 {
		if err := FsyncDir(dir); err != nil {
			return err
		}
	}
	if err := AtomicWriteBytes(dir, ManifestFile, EncodeManifest(entries)); err != nil {
		return err
	}
	return cleanShardDir(dir, keep)
}

// fileHolds reports whether the file at path holds exactly want; a
// file that cannot be read does not, so the caller writes it.
func fileHolds(path string, want []byte) bool {
	got, err := os.ReadFile(path)
	return err == nil && bytes.Equal(got, want)
}

// cleanShardDir removes files superseded by a fresh batch: shard files
// no longer in the manifest, quarantined shards and the quarantine log
// from a previous generation, and temp files a killed writer, repair
// or legacy non-fsyncing ingest left behind. Live temp files cannot be
// confused with orphans here: every writer in this process renames its
// temp before WriteShardDir's cleanup runs, and concurrent ingests
// into one directory are outside the design (the manifest would race
// regardless).
func cleanShardDir(dir string, keep map[string]bool) error {
	for _, pattern := range []string{shardGlob, shardGlob + QuarantineSuffix, ".*.tmp*"} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return err
		}
		for _, p := range paths {
			if !keep[filepath.Base(p)] {
				if err := os.Remove(p); err != nil {
					return err
				}
			}
		}
	}
	if err := os.Remove(filepath.Join(dir, QuarantineFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return FsyncDir(dir)
}

// Opener abstracts file opening for shard loads; nil means os.Open.
// The serve layer passes its Config.Open seam through here so chaos
// harnesses can inject slow or failing reads.
type Opener func(path string) (io.ReadCloser, error)

func defaultOpener(path string) (io.ReadCloser, error) { return os.Open(path) }

// ReadManifest reads and decodes dir's manifest through open (nil
// means os.Open): the first step of every load. The manifest is the
// only way in — jobs.supremm and jobs.jsonl are repair backing — so a
// directory without one is refused, whatever else it holds.
func ReadManifest(dir string, open Opener) ([]ShardInfo, error) {
	if open == nil {
		open = defaultOpener
	}
	data, err := readAllClose(open, filepath.Join(dir, ManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: no %s (cmd/ingest writes it): %w", ManifestFile, err)
	}
	if err != nil {
		return nil, err
	}
	entries, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", ManifestFile, err)
	}
	return entries, nil
}

// LoadShardSet reads dir's manifest and loads (or, against prev,
// reuses) every shard it lists, all or nothing — right for a directory
// that is supposed to be one consistent batch: the first fault of the
// fault-isolating loader, in manifest order, fails the load.
func LoadShardSet(dir string, prev *ShardSet) (*ShardSet, error) {
	entries, err := ReadManifest(dir, nil)
	if err != nil {
		return nil, err
	}
	set, faults := LoadShardsDegraded(dir, entries, prev, nil)
	if len(faults) > 0 {
		return nil, faults[0].Err
	}
	return set, nil
}

// ShardFault is one manifest entry that could not be served, or failed
// the scrubber's re-verification: the entry and the error that
// disqualified it, ErrShardAhead inside it unless it is damage.
type ShardFault struct {
	Info ShardInfo
	Err  error
}

// ErrShardAhead marks a shard file that fails its manifest entry yet is
// a well-formed shard of the entry's day: a writer landed it ahead of
// its manifest (shards first, manifest last), or an operator restored
// the wrong batch's file. It is not damage — nothing may be moved aside
// or rebuilt on its account — but a load that meets it fails.
var ErrShardAhead = errors.New("a well-formed shard of that day, ahead of a manifest that has not landed")

// LoadShardsDegraded assembles a shard set from already-decoded
// manifest entries with per-shard fault isolation (DESIGN.md §15): a
// shard that fails to load becomes a ShardFault instead of failing the
// set — under self-healing one rotted day must not take 364 healthy
// days off the air — and the returned set holds only the healthy
// shards, in manifest order, so the global row order is the healthy
// subsequence of the full order.
//
// A shard whose manifest entry is unchanged from prev — same ID, rows,
// size, hash — and whose on-disk file still has the manifest size is
// adopted from prev by pointer (columns shared, no copy, no decode);
// everything else is read, CRC-verified against the manifest, and
// decoded, in parallel. This is what makes a one-day append reload
// O(1 day) instead of O(history).
func LoadShardsDegraded(dir string, entries []ShardInfo, prev *ShardSet, open Opener) (*ShardSet, []ShardFault) {
	if open == nil {
		open = defaultOpener
	}
	shards := make([]*Shard, len(entries))
	var (
		work  []int
		stats ShardLoadStats
	)
	for i, e := range entries {
		if prev != nil {
			if sh := prev.shardByID(e.ID); sh != nil && sh.info == e {
				// The entry matches the previous generation's, but the
				// file on disk may still have been replaced or torn with
				// the manifest left stale, or renamed away by a
				// quarantine: verify at least its size before trusting the
				// in-memory copy, else the entry goes down the load path
				// and into the faults. (Writers producing a different
				// same-size content also produce a different hash, which
				// already failed the entry equality.)
				if st, err := os.Stat(filepath.Join(dir, ShardFileName(e.ID))); err == nil && st.Size() == e.Size {
					shards[i] = sh
					stats.Reused++
					stats.ReusedBytes += e.Size
					continue
				}
			}
		}
		work = append(work, i)
	}
	errs := make([]error, len(work))
	var faults []ShardFault
	RunChunks(len(work), runtime.GOMAXPROCS(0), func(c int) {
		i := work[c]
		shards[i], errs[c] = loadShard(dir, entries[i], open)
	}, func(c int) {
		if e := entries[work[c]]; errs[c] != nil {
			faults = append(faults, ShardFault{Info: e, Err: errs[c]})
		} else {
			stats.Loaded++
			stats.LoadedBytes += e.Size
		}
	})
	healthy := shards[:0]
	for _, sh := range shards {
		if sh != nil {
			healthy = append(healthy, sh)
		}
	}
	return newShardSet(healthy, stats), faults
}

// readShard reads day e.ID's shard file and holds it to the manifest
// entry: byte length and content CRC32. It is the one place a file that
// fails its entry is classified, for loader and scrubber alike, by
// content, never stat: bytes that decode as a shard of that day (every
// block CRC passes, every job end inside the day) are ErrShardAhead; a
// missing, unreadable, torn, truncated or rotted file is damage.
func readShard(dir string, e ShardInfo, open Opener) ([]byte, error) {
	name := ShardFileName(e.ID)
	data, err := readAllClose(open, filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: shard %s: %w", name, err)
	}
	if int64(len(data)) != e.Size {
		err = fmt.Errorf("store: shard %s is %d bytes, manifest says %d", name, len(data), e.Size)
	} else if got := crc32.ChecksumIEEE(data); got != e.Hash {
		err = fmt.Errorf("store: shard %s content hash %08x does not match manifest %08x", name, got, e.Hash)
	} else {
		return data, nil
	}
	if shardOfDay(data, e.ID) != nil {
		err = fmt.Errorf("%w: %w", err, ErrShardAhead)
	}
	return nil, err
}

// shardOfDay decodes data if it is a well-formed shard of day — it
// decodes, every block CRC passing, and every job end lies inside the
// day — and returns nil if it is not.
func shardOfDay(data []byte, day int64) *Columns {
	c, err := DecodeColumns(data)
	if err != nil || c.Len() == 0 || EpochDay(c.minEnd) != day || EpochDay(c.maxEnd) != day {
		return nil
	}
	return c
}

// AheadShards returns, in day order, the shard files in dir whose day
// entries does not list but whose bytes are a well-formed shard of that
// day: days written ahead of a manifest that has not landed. Each is
// described as a manifest entry would describe it. A file that cannot
// be read, or is no such shard, is left out.
func AheadShards(dir string, entries []ShardInfo, open Opener) []ShardInfo {
	if open == nil {
		open = defaultOpener
	}
	listed := make(map[int64]bool, len(entries))
	for _, e := range entries {
		listed[e.ID] = true
	}
	var out []ShardInfo
	for _, path := range ShardFiles(dir) {
		var day int64
		name := filepath.Base(path)
		if _, err := fmt.Sscanf(name, "shard-%d.supremm", &day); err != nil || ShardFileName(day) != name || listed[day] {
			continue
		}
		data, err := readAllClose(open, path)
		if err != nil {
			continue
		}
		if c := shardOfDay(data, day); c != nil {
			out = append(out, ShardInfo{ID: day, Rows: c.Len(), MinEnd: c.minEnd, MaxEnd: c.maxEnd,
				Size: int64(len(data)), Hash: crc32.ChecksumIEEE(data)})
		}
	}
	slices.SortFunc(out, func(a, b ShardInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// loadShard reads, verifies and decodes one shard file against its
// manifest entry: beyond readShard's length and CRC, the decoded row
// count and time range must agree, so a stale manifest or a substituted
// shard file fails the load instead of serving mixed generations.
func loadShard(dir string, e ShardInfo, open Opener) (*Shard, error) {
	name := ShardFileName(e.ID)
	data, err := readShard(dir, e, open)
	if err != nil {
		return nil, err
	}
	c, err := DecodeColumns(data)
	if err != nil {
		return nil, fmt.Errorf("store: shard %s: %w", name, err)
	}
	if c.Len() != e.Rows {
		return nil, fmt.Errorf("store: shard %s decoded %d rows, manifest says %d", name, c.Len(), e.Rows)
	}
	if c.minEnd != e.MinEnd || c.maxEnd != e.MaxEnd {
		return nil, fmt.Errorf("store: shard %s end range [%d,%d] does not match manifest [%d,%d]",
			name, c.minEnd, c.maxEnd, e.MinEnd, e.MaxEnd)
	}
	return newShard(e, c), nil
}

// readAllClose opens, fully reads and closes one file. A reader that can
// stat itself (an *os.File) is read into one buffer of the file's own
// size plus room to meet EOF in — the file's, never a manifest's claim,
// and only a first guess: a file that grew is still read to its end. One
// the open seam wrapped grows from nothing.
func readAllClose(open Opener, path string) ([]byte, error) {
	rc, err := open(path)
	if err != nil {
		return nil, err
	}
	size := 0
	if f, ok := rc.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			size = int(st.Size())
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, rerr := buf.ReadFrom(rc)
	cerr := rc.Close()
	if rerr != nil {
		return nil, rerr
	}
	if cerr != nil {
		return nil, cerr
	}
	return buf.Bytes(), nil
}
