package ingest

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"

	"supremm/internal/store"
)

// WriteDir lands one batch in the data directory dir: the whole job
// history st, the system series and the batch's data-quality report (nil
// when no raw ingest produced the batch, as in cmd/simulate). It is the
// landing sequence of both cmd/ingest and cmd/simulate:
//
//  1. Remove stale files, fsyncing dir after a removal. A jobs.supremm
//     an earlier writer left holds an older batch, yet shard repair
//     prefers it (store.LoadBackingStore), so a day this batch added
//     could not be rebuilt. With q nil, an earlier ingest's quality.json
//     would report on files this batch never read.
//  2. Group the rows by job-end day, so jobs.jsonl lists them in the
//     order the day shards concatenate to and queries answer in.
//  3. jobs.jsonl, series.jsonl, then quality.json.
//  4. The day shards, then the manifest (store.WriteShardDir).
//
// Every file lands atomically (store.AtomicWriteFile): supremmd polls
// dir and sees, per file, the previous one or the new one.
func WriteDir(dir string, st *store.Store, series []store.SystemSample, q *DataQuality) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stale := []string{store.JobsColumnarFile}
	if q == nil {
		stale = append(stale, store.QualityFile)
	}
	removed := false
	for _, name := range stale {
		err := os.Remove(filepath.Join(dir, name))
		if err == nil {
			removed = true
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	if removed {
		if err := store.FsyncDir(dir); err != nil {
			return err
		}
	}
	st.ReorderByEndDay()
	if err := store.AtomicWriteFile(dir, store.JobsFile, func(f *os.File) error {
		return st.Save(f)
	}); err != nil {
		return err
	}
	if err := store.AtomicWriteFile(dir, store.SeriesFile, func(f *os.File) error {
		return store.SaveSeries(f, series)
	}); err != nil {
		return err
	}
	if q != nil {
		if err := store.AtomicWriteFile(dir, store.QualityFile, func(f *os.File) error {
			return WriteQuality(f, q)
		}); err != nil {
			return err
		}
	}
	return store.WriteShardDir(dir, st)
}
