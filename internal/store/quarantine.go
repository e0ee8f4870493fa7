package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Shard quarantine (DESIGN.md §15).
//
// When verification finds a shard whose bytes no longer match its
// manifest entry (bit rot, a torn rewrite, a partial restore), the
// shard is not deleted — deletion destroys the evidence and any chance
// of forensics — and it must not keep failing every reload. It is
// moved aside to "<shard>.quarantined" and the event is recorded in
// QUARANTINE.supremm, an append-only log of what happened to which
// shard, why, and when. A later repair that rebuilds the shard from
// the monolithic backing appends a matching "repair" record, so the
// log is the full custody chain of every day the store ever degraded.
const (
	// QuarantineFile is the quarantine log's file name inside a data
	// directory.
	QuarantineFile = "QUARANTINE.supremm"
	// QuarantineSuffix is appended to a shard file name when the shard
	// is moved aside.
	QuarantineSuffix = ".quarantined"
	// quarantineMagic is the log's first line; the rest is one JSON
	// event per line.
	quarantineMagic = "SUPRMMQ1"
	// quarantineMaxEvents bounds a decoded log so hostile input cannot
	// balloon memory; a real directory sees a handful of events.
	quarantineMaxEvents = 1 << 16
)

// Quarantine event actions.
const (
	// ActionQuarantine: the shard failed verification and was moved
	// aside (or was already missing and only recorded).
	ActionQuarantine = "quarantine"
	// ActionRepair: the shard was rebuilt byte-identically from the
	// monolithic backing and returned to service.
	ActionRepair = "repair"
)

// QuarantineEvent is one entry in the quarantine log.
type QuarantineEvent struct {
	// Day is the shard's epoch-day partition key.
	Day int64 `json:"day"`
	// Action is ActionQuarantine or ActionRepair.
	Action string `json:"action"`
	// Reason is the verification failure (quarantine) or the repair
	// source (repair), human-readable.
	Reason string `json:"reason"`
	// At is the event's unix time in seconds, supplied by the caller —
	// the store layer never reads the wall clock itself, so tests and
	// the serve layer's injected clock stay deterministic. Zero when no
	// clock was available.
	At int64 `json:"at"`
	// Size and Hash are the manifest entry's expectations for the
	// shard at event time, recorded so the log is interpretable after
	// the manifest itself has moved on.
	Size int64  `json:"size"`
	Hash uint32 `json:"hash"`
}

// QuarantinedShardFile returns the aside-name for a day's shard.
func QuarantinedShardFile(day int64) string { return ShardFileName(day) + QuarantineSuffix }

// EncodeQuarantineLog serializes events: the magic line followed by
// one compact JSON object per line. encode(decode(b)) == b for every
// accepted b (the decoder rejects non-canonical encodings), which is
// what FuzzQuarantineRecord pins.
func EncodeQuarantineLog(events []QuarantineEvent) []byte {
	var buf bytes.Buffer
	buf.WriteString(quarantineMagic)
	buf.WriteByte('\n')
	for _, ev := range events {
		// Marshal of a flat struct with string/int fields cannot fail.
		line, err := json.Marshal(ev)
		if err != nil {
			panic("store: quarantine event marshal: " + err.Error())
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// DecodeQuarantineLog parses and validates quarantine log bytes. The
// magic must match, every line must be a canonical compact JSON event
// (re-encoding reproduces the line exactly — no unknown fields, no
// reordered keys, no stray whitespace), actions must be known, days
// must be in manifest range, and the event count is bounded. Any
// damage is an error, never a panic.
func DecodeQuarantineLog(data []byte) ([]QuarantineEvent, error) {
	if len(data) < len(quarantineMagic)+1 {
		return nil, fmt.Errorf("store: quarantine log is %d bytes, shorter than its header", len(data))
	}
	if string(data[:len(quarantineMagic)]) != quarantineMagic || data[len(quarantineMagic)] != '\n' {
		return nil, fmt.Errorf("store: bad quarantine log magic %q", data[:len(quarantineMagic)])
	}
	rest := data[len(quarantineMagic)+1:]
	events := []QuarantineEvent{}
	for lineNo := 2; len(rest) > 0; lineNo++ {
		if len(events) >= quarantineMaxEvents {
			return nil, fmt.Errorf("store: quarantine log exceeds %d events", quarantineMaxEvents)
		}
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("store: quarantine log line %d is not newline-terminated", lineNo)
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		var ev QuarantineEvent
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("store: quarantine log line %d: %w", lineNo, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("store: quarantine log line %d has trailing data", lineNo)
		}
		if ev.Action != ActionQuarantine && ev.Action != ActionRepair {
			return nil, fmt.Errorf("store: quarantine log line %d: unknown action %q", lineNo, ev.Action)
		}
		if ev.Day < -manifestMaxID || ev.Day > manifestMaxID {
			return nil, fmt.Errorf("store: quarantine log line %d: day %d out of range", lineNo, ev.Day)
		}
		if ev.Size < 0 {
			return nil, fmt.Errorf("store: quarantine log line %d: negative size %d", lineNo, ev.Size)
		}
		canonical, err := json.Marshal(ev)
		if err != nil {
			return nil, fmt.Errorf("store: quarantine log line %d: %w", lineNo, err)
		}
		if !bytes.Equal(canonical, line) {
			return nil, fmt.Errorf("store: quarantine log line %d is not canonical", lineNo)
		}
		events = append(events, ev)
	}
	return events, nil
}

// LoadQuarantineLog reads dir's quarantine log; a missing file means
// no events, not an error.
func LoadQuarantineLog(dir string) ([]QuarantineEvent, error) {
	data, err := os.ReadFile(filepath.Join(dir, QuarantineFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeQuarantineLog(data)
}

// AppendQuarantineEvent durably appends one event to dir's quarantine
// log: read, append, atomic rewrite (the log is a handful of lines, so
// rewriting beats managing partial appends through crashes). A corrupt
// existing log is an error — healing machinery must not silently
// discard the custody chain it exists to keep.
func AppendQuarantineEvent(dir string, ev QuarantineEvent) error {
	events, err := LoadQuarantineLog(dir)
	if err != nil {
		return err
	}
	return AtomicWriteBytes(dir, QuarantineFile, EncodeQuarantineLog(append(events, ev)))
}

// QuarantineShard is the one function that takes a shard out of
// service: it moves day e.ID's file aside and appends the custody
// record saying why, reporting whether it did. A day whose aside copy
// already exists is left as it is (false, nil), so a day that stays
// unrepaired is recorded once, not on every load that finds it missing.
// A shard file that is simply gone (lost) has nothing to move and only
// the record is written. now is the caller's clock reading (unix
// seconds; 0 when clock-free).
func QuarantineShard(dir string, e ShardInfo, reason string, now int64) (recorded bool, err error) {
	if isQuarantined(dir, e.ID) {
		return false, nil
	}
	src := filepath.Join(dir, ShardFileName(e.ID))
	dst := filepath.Join(dir, QuarantinedShardFile(e.ID))
	if err := os.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return false, err
	}
	if err := FsyncDir(dir); err != nil {
		return false, err
	}
	err = AppendQuarantineEvent(dir, QuarantineEvent{
		Day: e.ID, Action: ActionQuarantine, Reason: reason, At: now,
		Size: e.Size, Hash: e.Hash,
	})
	return err == nil, err
}

// isQuarantined reports whether day's shard has been moved aside.
func isQuarantined(dir string, day int64) bool {
	_, err := os.Stat(filepath.Join(dir, QuarantinedShardFile(day)))
	return err == nil
}
