package store

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
)

// AtomicWriteFile lands a file at dir/name so that a reader — most
// importantly supremmd's poll-reload — never observes a partial write,
// and a crash at any point never loses an already-visible file:
//
//  1. the bytes are written to a hidden temp file in the same
//     directory (rename only works within a filesystem);
//  2. the temp file is fsynced, so the rename can never expose data
//     the kernel has not flushed;
//  3. the temp file is renamed over the target — the atomic step;
//  4. the parent directory is fsynced, so a crash right after the
//     rename cannot roll the directory entry back to the old file
//     (rename durability is a property of the directory, not the
//     file — fsyncing only the file leaves the new name unflushed).
//
// write receives the open temp file and streams the payload into it
// (the cmd/ingest outputs are written by encoder callbacks, not from
// in-memory byte slices). On any failure before the rename the target
// is left untouched and the temp file is removed.
func AtomicWriteFile(dir, name string, write func(f *os.File) error) error {
	if err := renameInto(dir, name, write); err != nil {
		return err
	}
	return FsyncDir(dir)
}

// renameInto is AtomicWriteFile's steps 1–3: the file has landed at
// dir/name when it returns nil, durably once dir is synced.
func renameInto(dir, name string, write func(f *os.File) error) error {
	f, err := os.CreateTemp(dir, "."+name+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		_ = f.Close() // write error wins
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // sync error wins
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		_ = f.Close() // chmod error wins
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// AtomicWriteBytes is AtomicWriteFile for an in-memory payload.
func AtomicWriteBytes(dir, name string, data []byte) error {
	return AtomicWriteFile(dir, name, writeBytes(data))
}

// writeBytes is the write callback that lands data as it is.
func writeBytes(data []byte) func(f *os.File) error {
	return func(f *os.File) error {
		_, err := f.Write(data)
		return err
	}
}

// FsyncDir flushes a directory's entry table, making completed renames
// inside it durable. Filesystems that reject fsync on a directory
// handle (some network mounts) report EINVAL/ENOTSUP; that is the
// platform telling us directory syncs are meaningless there, not a
// failed write, so it is not surfaced as an error.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil && !errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
		return serr
	}
	return cerr
}
