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

// RepairShard rebuilds day e.ID's shard from backing and, only if the
// rebuilt bytes are bit-identical to what the manifest promised (same
// row count, same byte length, same CRC32), lands the shard file
// atomically and removes the quarantined copy. A backing whose rows do
// not reproduce the manifest's bytes — damaged, from another batch, or
// simply missing the day — is an error and the directory is left
// untouched.
func RepairShard(dir string, e ShardInfo, backing *Store) error {
	var rows []int
	for i, end := range backing.c.End {
		if EpochDay(end) == e.ID {
			rows = append(rows, i)
		}
	}
	c := backing.c.gather(rows)
	name := ShardFileName(e.ID)
	if c.Len() != e.Rows {
		return fmt.Errorf("store: repair %s: backing holds %d rows for day %d, manifest says %d",
			name, c.Len(), e.ID, e.Rows)
	}
	payload := EncodeColumns(c)
	if int64(len(payload)) != e.Size {
		return fmt.Errorf("store: repair %s: rebuilt %d bytes, manifest says %d", name, len(payload), e.Size)
	}
	if got := crc32.ChecksumIEEE(payload); got != e.Hash {
		return fmt.Errorf("store: repair %s: rebuilt hash %08x does not match manifest %08x", name, got, e.Hash)
	}
	if err := AtomicWriteBytes(dir, name, payload); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, QuarantinedShardFile(e.ID))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return FsyncDir(dir)
}
