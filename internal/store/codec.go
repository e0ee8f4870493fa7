package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary snapshot format ("jobs.supremm", DESIGN.md §11).
//
// The file is a direct little-endian serialization of Columns: the
// file header (appendHeader, shared with the manifest; its count is the
// row count) followed by one length-prefixed, CRC32-guarded block per
// column, in the order Columns.each walks them: block k, id k, is the
// walk's k-th column. Numeric columns are raw value arrays; string
// columns are a dictionary (each distinct value once, in
// first-appearance order) plus one uint32 code per row. Decoding runs
// on the sticky decoder and never trusts a declared length without
// checking it against the bytes actually present, so a hostile file
// cannot drive allocations past its own size, and any structural
// damage (truncation, bit flips, trailing garbage) is an error — never
// a panic, never a silently wrong store.
//
// Versioning: the major version is part of the header; readers reject
// any version they do not know. New columns get new block ids and a
// version bump; v1 requires exactly the 23 known blocks in that
// order, which also makes encode→decode→encode byte-stable.

const (
	// codecMagic opens every snapshot file.
	codecMagic = "SUPRMMC1"
	// codecVersion is the current (and only) format version.
	codecVersion = 1
	// blockHeaderLen is id + payload length + payload CRC32.
	blockHeaderLen = 4 + 8 + 4
)

// EncodeColumns serializes the columnar layout into the binary snapshot
// format. The output is a pure function of the serialized fields
// (dictionaries in first-appearance order, codes, numeric columns), so
// encoding the decode of an encode reproduces the bytes exactly. The
// result is allocated once, at its exact size.
func EncodeColumns(c *Columns) []byte {
	total, _ := encodedLen(c)
	bw := &blockWriter{buf: make([]byte, 0, total)}
	bw.columns(c)
	return bw.buf
}

// encodedLen returns the exact byte length of c's snapshot and of its
// largest single piece (the file header, or one block with its header):
// what EncodeColumns and SaveBinary allocate, once, never to regrow.
func encodedLen(c *Columns) (total, largestPiece int) {
	sz := &sizer{total: headerLen, largest: headerLen}
	c.each(sz)
	return sz.total, sz.largest
}

// sizer is the walk that measures the blocks Columns.each would write.
type sizer struct{ total, largest int }

func (sz *sizer) block(size int) {
	sz.total += blockHeaderLen + size
	sz.largest = max(sz.largest, blockHeaderLen+size)
}

func (sz *sizer) int64s(col *[]int64)     { sz.block(8 * len(*col)) }
func (sz *sizer) int32s(col *[]int32)     { sz.block(4 * len(*col)) }
func (sz *sizer) float64s(col *[]float64) { sz.block(8 * len(*col)) }
func (sz *sizer) dict(col *DictColumn)    { sz.block(col.encodedLen()) }

// encodedLen is the dictionary block's payload size: the value count,
// each value length-prefixed, one code per row.
func (d *DictColumn) encodedLen() int {
	size := 4 + 4*len(d.Codes)
	for _, v := range d.Values {
		size += 4 + len(v)
	}
	return size
}

// blockWriter is the one snapshot encoder. Each block is encoded in
// place at the tail of buf and its length and CRC32 back-filled over
// the bytes just written, so no column is staged in a temporary slice
// and buf never outgrows the capacity encodedLen gave it. With w nil
// the pieces accumulate (EncodeColumns); with w set each is written out
// as it is finished and buf reused for the next (SaveBinary).
type blockWriter struct {
	buf []byte
	w   io.Writer
	err error  // first error from w; nothing is written after it
	id  uint32 // the last block's id: block k is the k-th of Columns.each
}

// columns emits the file header, then one block per column of the walk.
func (bw *blockWriter) columns(c *Columns) {
	bw.buf = appendHeader(bw.buf, codecMagic, codecVersion, c.Len())
	bw.flush()
	c.each(bw)
}

// block appends the next block: fill encodes the size payload bytes in
// place.
func (bw *blockWriter) block(size int, fill func(payload []byte)) {
	bw.id++
	id, start := bw.id, len(bw.buf)
	bw.buf = bw.buf[:start+blockHeaderLen+size]
	hdr, payload := bw.buf[start:start+blockHeaderLen], bw.buf[start+blockHeaderLen:]
	fill(payload)
	binary.LittleEndian.PutUint32(hdr, id)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(size))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
	bw.flush()
}

// flush hands a finished piece to the streaming writer, if there is one.
func (bw *blockWriter) flush() {
	if bw.w == nil {
		return
	}
	if bw.err == nil {
		_, bw.err = bw.w.Write(bw.buf)
	}
	bw.buf = bw.buf[:0]
}

func (bw *blockWriter) int64s(col *[]int64) {
	bw.block(len(*col)*8, func(p []byte) {
		for i, v := range *col {
			binary.LittleEndian.PutUint64(p[i*8:], uint64(v))
		}
	})
}

func (bw *blockWriter) int32s(col *[]int32) {
	bw.block(len(*col)*4, func(p []byte) {
		for i, v := range *col {
			binary.LittleEndian.PutUint32(p[i*4:], uint32(v))
		}
	})
}

func (bw *blockWriter) float64s(col *[]float64) {
	bw.block(len(*col)*8, func(p []byte) {
		for i, v := range *col {
			binary.LittleEndian.PutUint64(p[i*8:], math.Float64bits(v))
		}
	})
}

func (bw *blockWriter) dict(d *DictColumn) {
	bw.block(d.encodedLen(), func(p []byte) {
		binary.LittleEndian.PutUint32(p, uint32(len(d.Values)))
		p = p[4:]
		for _, v := range d.Values {
			binary.LittleEndian.PutUint32(p, uint32(len(v)))
			p = p[4+copy(p[4:], v):]
		}
		for i, c := range d.Codes {
			binary.LittleEndian.PutUint32(p[i*4:], c)
		}
	})
}

// The header both binary formats open with, snapshot and manifest
// alike: magic | u32 version | u32 flags (reserved, 0) | u64 count.
// appendHeader is its one writer and decoder.header its one reader.

// headerLen is magic (8 bytes) + version + flags + count.
const headerLen = 8 + 4 + 4 + 8

// appendHeader appends a file header declaring count records.
func appendHeader(buf []byte, magic string, version uint32, count int) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // flags, reserved
	return binary.LittleEndian.AppendUint64(buf, uint64(count))
}

// decoder walks input bytes with strict bounds checking: every take is
// validated against the remaining length before any slice or
// allocation is derived from it. Its first failure sticks: fail keeps
// only the first error, and after it every read returns zero values.
// So a decode reads its fields straight through, checks each value as
// it comes (a check that trips after a failure records nothing), and
// reads err only before it sizes an allocation from a decoded value
// and before it returns.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

// fail records the decode's first failure; later ones are dropped.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n input bytes after bounds-checking n against
// what remains; nil once the decode has failed.
//
// supremmlint:untrusted — the returned bytes are raw input.
func (d *decoder) take(n int) []byte {
	if n < 0 || n > d.remaining() {
		d.fail("store: snapshot truncated at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
	}
	if d.err != nil {
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// uint32 decodes the next little-endian u32, 0 once the decode has
// failed.
//
// supremmlint:untrusted — the result comes straight from input bytes
// and must be bounds-checked before sizing anything.
func (d *decoder) uint32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// uint64 decodes the next little-endian u64, 0 once the decode has
// failed.
//
// supremmlint:untrusted — the result comes straight from input bytes
// and must be bounds-checked before sizing anything.
func (d *decoder) uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// header reads a file header written by appendHeader, checks its
// magic, version and flags against the format's (what names it in the
// errors), and returns the declared count.
//
// supremmlint:untrusted — the count comes straight from input bytes
// and must be bounds-checked before sizing anything.
func (d *decoder) header(what, magic string, version uint32) uint64 {
	if m := d.take(len(magic)); !bytes.Equal(m, []byte(magic)) {
		d.fail("store: bad %s magic %q", what, m)
	}
	if v := d.uint32(); v != version {
		d.fail("store: unsupported %s version %d (want %d)", what, v, version)
	}
	if flags := d.uint32(); flags != 0 {
		d.fail("store: unsupported %s flags %#x", what, flags)
	}
	return d.uint64()
}

// block reads one block header and returns the checksum-verified
// payload for the expected block id; nil once the decode has failed.
func (d *decoder) block(wantID uint32) []byte {
	if id := d.uint32(); id != wantID {
		d.fail("store: snapshot block %d out of order (want %d)", id, wantID)
	}
	length, sum := d.uint64(), d.uint32()
	if length > uint64(d.remaining()) {
		d.fail("store: snapshot block %d claims %d payload bytes, only %d remain", wantID, length, d.remaining())
	}
	payload := d.take(int(length))
	if got := crc32.ChecksumIEEE(payload); got != sum {
		d.fail("store: snapshot block %d checksum mismatch (%08x != %08x)", wantID, got, sum)
	}
	if d.err != nil {
		return nil
	}
	return payload
}

// decodeDict parses a dictionary block's payload: the value count,
// each value length-prefixed, one code per row.
func decodeDict(payload []byte, rows int) (DictColumn, error) {
	var out DictColumn
	d := decoder{data: payload}
	dictLen := d.uint32()
	// Each dictionary entry needs at least its 4-byte length prefix and
	// each row a 4-byte code, so dictLen is bounded by the payload
	// itself — checked before allocating.
	if uint64(dictLen)*4+uint64(rows)*4 > uint64(d.remaining()) {
		d.fail("store: dictionary claims %d values in %d bytes", dictLen, d.remaining())
	}
	if d.err != nil {
		return out, d.err
	}
	out.Values = make([]string, 0, dictLen)
	seen := make(map[string]bool, dictLen)
	for k := uint32(0); k < dictLen && d.err == nil; k++ {
		v := string(d.take(int(d.uint32()))) //supremmlint:allow hotalloc: dictionary values are interned once per distinct string, not per row
		if seen[v] {
			// Duplicate dictionary entries never come out of the encoder
			// and would break the one-group-per-code invariant GroupBy
			// relies on.
			d.fail("store: dictionary value %q appears twice", v)
		}
		seen[v] = true
		out.Values = append(out.Values, v)
	}
	codes := d.take(rows * 4)
	if d.remaining() != 0 {
		d.fail("store: dictionary has %d trailing bytes", d.remaining())
	}
	if d.err != nil {
		return out, d.err
	}
	out.Codes = make([]uint32, rows)
	for i := range out.Codes {
		c := binary.LittleEndian.Uint32(codes[i*4:])
		if c >= dictLen {
			return out, fmt.Errorf("store: dictionary code %d out of range (dictionary has %d values)", c, dictLen)
		}
		out.Codes[i] = c
	}
	return out, nil
}

// DecodeColumns parses a binary snapshot produced by EncodeColumns.
// Malformed input of any kind — wrong magic or version, truncated or
// reordered blocks, checksum mismatches, out-of-range codes or lengths,
// trailing bytes — returns an error; decode never panics and never
// allocates more than a small multiple of len(data).
func DecodeColumns(data []byte) (*Columns, error) {
	d := &decoder{data: data}
	rows := d.header("snapshot", codecMagic, codecVersion)
	// Every row costs at least 4 bytes in each of the 11 fixed-width /
	// code arrays, so a row count the remaining bytes cannot hold is
	// structurally invalid — rejected before any allocation.
	if rows > uint64(d.remaining())/4 {
		d.fail("store: snapshot claims %d rows in %d bytes", rows, d.remaining())
	}
	c := &Columns{}
	c.each(&blockReader{d: d, rows: int(rows)})
	if d.remaining() != 0 {
		d.fail("store: %d trailing bytes after last block", d.remaining())
	}
	if d.err != nil {
		return nil, d.err
	}
	c.recomputeDerived()
	return c, nil
}

// blockReader is the decoding walk: each call reads the next block,
// verifies its id and checksum, and decodes it into the column. After
// the decoder's first failure every later call is a no-op.
type blockReader struct {
	d    *decoder
	rows int
	id   uint32 // the last block's id: block k is the k-th of Columns.each
}

// payload returns the next block's verified payload.
func (br *blockReader) payload() []byte {
	br.id++
	return br.d.block(br.id)
}

// fixed returns the next block's payload, checked to hold one
// width-byte value per row.
func (br *blockReader) fixed(kind string, width int) []byte {
	p := br.payload()
	if len(p) != br.rows*width {
		br.d.fail("store: %s column payload is %d bytes, want %d", kind, len(p), br.rows*width)
	}
	return p
}

func (br *blockReader) int64s(col *[]int64) {
	p := br.fixed("int64", 8)
	if br.d.err != nil {
		return
	}
	out := make([]int64, br.rows)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[i*8:]))
	}
	*col = out
}

func (br *blockReader) int32s(col *[]int32) {
	p := br.fixed("int32", 4)
	if br.d.err != nil {
		return
	}
	out := make([]int32, br.rows)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
	}
	*col = out
}

func (br *blockReader) float64s(col *[]float64) {
	p := br.fixed("float64", 8)
	if br.d.err != nil {
		return
	}
	out := make([]float64, br.rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	*col = out
}

func (br *blockReader) dict(col *DictColumn) {
	if p := br.payload(); br.d.err == nil {
		*col, br.d.err = decodeDict(p, br.rows)
	}
}

// SaveBinary writes the store as a binary snapshot (jobs.supremm): the
// bytes of EncodeColumns, streamed piece by piece through one buffer
// the size of the largest block instead of a second copy of the store.
func (s *Store) SaveBinary(w io.Writer) error {
	_, largest := encodedLen(&s.c)
	bw := &blockWriter{buf: make([]byte, 0, largest), w: w}
	bw.columns(&s.c)
	return bw.err
}
