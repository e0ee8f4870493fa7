package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// Shard repair (DESIGN.md §15).
//
// cmd/ingest and cmd/simulate write every batch twice — as day shards
// with the manifest describing them, and as one monolithic backing,
// the JSON lines of jobs.jsonl — and both hold exactly the same rows,
// each day's in the same order (WriteShardDir and RepairShard both keep
// the within-day order; the global order of a backing does not matter).
// A columnar jobs.supremm of the same rows, where one was put beside
// them, backs repair too. That redundancy is the repair path: a
// quarantined shard can be rebuilt by partitioning a surviving
// monolithic backing by end day and re-encoding the lost day.
// Shard bytes are a pure function of the rows, so a correct rebuild is
// byte-identical to the original — and the manifest entry's size and
// hash let us PROVE it before the rebuilt shard is trusted. A backing
// that was itself damaged (decode failure, or rows that re-encode to
// different bytes) is refused; repair never lowers the store's
// integrity to "probably right".

// LoadBackingStore loads the monolithic job store for repair:
// jobs.supremm first, jobs.jsonl as fallback. Unlike the serve load
// path — where a damaged preferred form must fail the load loudly — a
// damaged backing here just means that source cannot repair, so errors
// demote to the next source; (nil, reason) means no usable backing.
// The returned label names the source used (JobsColumnarFile or
// JobsFile) for repair provenance.
func LoadBackingStore(dir string, open Opener) (*Store, string, error) {
	if open == nil {
		open = defaultOpener
	}
	var firstErr error
	if data, err := readAllClose(open, filepath.Join(dir, JobsColumnarFile)); err == nil {
		c, derr := DecodeColumns(data)
		if derr == nil {
			return FromColumns(c), JobsColumnarFile, nil
		}
		firstErr = fmt.Errorf("%s: %w", JobsColumnarFile, derr)
	} else if !errors.Is(err, fs.ErrNotExist) {
		firstErr = err
	}
	rc, err := open(filepath.Join(dir, JobsFile))
	if err != nil {
		if firstErr == nil {
			firstErr = err
		}
		return nil, "", fmt.Errorf("store: no usable repair backing: %w", firstErr)
	}
	st, lerr := Load(rc)
	cerr := rc.Close()
	if lerr == nil && cerr != nil {
		lerr = cerr
	}
	if lerr != nil {
		if firstErr == nil {
			firstErr = lerr
		}
		return nil, "", fmt.Errorf("store: no usable repair backing: %w (%s: %v)", firstErr, JobsFile, lerr)
	}
	return st, JobsFile, nil
}

// RepairShard rebuilds day e.ID's shard from backing, the rows of the
// file LoadBackingStore labelled src, and lands it only if the rebuilt
// bytes are bit-identical to what the manifest promised (same row
// count, same byte length, same CRC32). A backing that does not
// reproduce them — damaged, from another batch, or simply missing the
// day — cannot repair: (false, nil), and the directory is untouched.
//
// Once the shard has landed its custody record ("rebuilt from src",
// dated now: the caller's clock in unix seconds, 0 when clock-free) is
// appended before anything else can fail, so the log never lacks the
// record of a rebuilt file in the directory; the record's own atomic
// write syncs the directory, the shard's rename with it. Then the
// quarantined copy is removed and the directory synced again. repaired
// reports that the record was written; a failure after the landing is
// still an error, reported beside it.
func RepairShard(dir string, e ShardInfo, backing *Store, src string, now int64) (repaired bool, err error) {
	var rows []int
	for i, end := range backing.c.End {
		if EpochDay(end) == e.ID {
			rows = append(rows, i)
		}
	}
	c := backing.c.gather(rows)
	if c.Len() != e.Rows {
		return false, nil
	}
	payload := EncodeColumns(c)
	if int64(len(payload)) != e.Size || crc32.ChecksumIEEE(payload) != e.Hash {
		return false, nil
	}
	if err := renameInto(dir, ShardFileName(e.ID), writeBytes(payload)); err != nil {
		return false, err
	}
	if err := AppendQuarantineEvent(dir, QuarantineEvent{
		Day: e.ID, Action: ActionRepair, Reason: "rebuilt from " + src,
		At: now, Size: e.Size, Hash: e.Hash,
	}); err != nil {
		return false, err
	}
	if err := os.Remove(filepath.Join(dir, QuarantinedShardFile(e.ID))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return true, err
	}
	return true, FsyncDir(dir)
}
