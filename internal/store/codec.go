package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary snapshot format ("jobs.supremm", DESIGN.md §11).
//
// The file is a direct little-endian serialization of Columns: a fixed
// header followed by one length-prefixed, CRC32-guarded block per
// column, in a fixed canonical order. Numeric columns are raw value
// arrays; string columns are a dictionary (each distinct value once,
// in first-appearance order) plus one uint32 code per row. Decoding
// never trusts a declared length without checking it against the bytes
// actually present, so a hostile file cannot drive allocations past its
// own size, and any structural damage (truncation, bit flips, trailing
// garbage) is an error — never a panic, never a silently wrong store.
//
// Versioning: the major version is part of the header; readers reject
// any version they do not know. New columns get new block ids and a
// version bump; v1 requires exactly the 23 known blocks in canonical
// order, which also makes encode→decode→encode byte-stable.

const (
	// codecMagic opens every snapshot file.
	codecMagic = "SUPRMMC1"
	// codecVersion is the current (and only) format version.
	codecVersion = 1
	// codecHeaderLen is magic + version + flags + row count.
	codecHeaderLen = 8 + 4 + 4 + 8
	// blockHeaderLen is id + payload length + payload CRC32.
	blockHeaderLen = 4 + 8 + 4
	// numBlocks is the fixed v1 block count: 5 int64/int32 identity
	// columns + job id + 5 dictionary columns + 12 metric columns.
	numBlocks = 11 + NumMetrics
)

// Block ids, in the canonical file order.
const (
	blockJobID   = 1
	blockCluster = 2
	blockUser    = 3
	blockApp     = 4
	blockScience = 5
	blockStatus  = 6
	blockNodes   = 7
	blockSubmit  = 8
	blockStart   = 9
	blockEnd     = 10
	blockSamples = 11
	blockMetric0 = 12 // metric k is block blockMetric0+k, AllMetrics order
)

// EncodeColumns serializes the columnar layout into the binary snapshot
// format. The output is a pure function of the serialized fields
// (dictionaries in first-appearance order, codes, numeric columns), so
// encoding the decode of an encode reproduces the bytes exactly. The
// result is allocated once, at its exact size.
func EncodeColumns(c *Columns) []byte {
	total, _ := encodedLen(c)
	bw := blockWriter{buf: make([]byte, 0, total)}
	bw.columns(c)
	return bw.buf
}

// encodedLen returns the exact byte length of c's snapshot and of its
// largest single piece (the file header, or one block with its header):
// what EncodeColumns and SaveBinary allocate, once, never to regrow.
func encodedLen(c *Columns) (total, largestPiece int) {
	n := c.Len()
	total = codecHeaderLen + numBlocks*blockHeaderLen + (4+NumMetrics)*8*n + 2*4*n
	largest := 8 * n
	for _, d := range []*DictColumn{&c.Cluster, &c.User, &c.App, &c.Science, &c.Status} {
		size := d.encodedLen()
		total, largest = total+size, max(largest, size)
	}
	return total, max(codecHeaderLen, blockHeaderLen+largest)
}

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
	err error // first error from w; nothing is written after it
}

// columns emits the file header and the 23 blocks in canonical order.
func (bw *blockWriter) columns(c *Columns) {
	bw.buf = append(bw.buf, codecMagic...)
	bw.buf = binary.LittleEndian.AppendUint32(bw.buf, codecVersion)
	bw.buf = binary.LittleEndian.AppendUint32(bw.buf, 0) // flags, reserved
	bw.buf = binary.LittleEndian.AppendUint64(bw.buf, uint64(c.Len()))
	bw.flush()

	bw.int64s(blockJobID, c.JobID)
	bw.dict(blockCluster, &c.Cluster)
	bw.dict(blockUser, &c.User)
	bw.dict(blockApp, &c.App)
	bw.dict(blockScience, &c.Science)
	bw.dict(blockStatus, &c.Status)
	bw.int32s(blockNodes, c.Nodes)
	bw.int64s(blockSubmit, c.Submit)
	bw.int64s(blockStart, c.Start)
	bw.int64s(blockEnd, c.End)
	bw.int32s(blockSamples, c.Samples)
	for k := 0; k < NumMetrics; k++ {
		bw.float64s(uint32(blockMetric0+k), c.Metrics[k])
	}
}

// block appends one block: fill encodes the size payload bytes in place.
func (bw *blockWriter) block(id uint32, size int, fill func(payload []byte)) {
	start := len(bw.buf)
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

func (bw *blockWriter) int64s(id uint32, col []int64) {
	bw.block(id, len(col)*8, func(p []byte) {
		for i, v := range col {
			binary.LittleEndian.PutUint64(p[i*8:], uint64(v))
		}
	})
}

func (bw *blockWriter) int32s(id uint32, col []int32) {
	bw.block(id, len(col)*4, func(p []byte) {
		for i, v := range col {
			binary.LittleEndian.PutUint32(p[i*4:], uint32(v))
		}
	})
}

func (bw *blockWriter) float64s(id uint32, col []float64) {
	bw.block(id, len(col)*8, func(p []byte) {
		for i, v := range col {
			binary.LittleEndian.PutUint64(p[i*8:], math.Float64bits(v))
		}
	})
}

func (bw *blockWriter) dict(id uint32, d *DictColumn) {
	bw.block(id, d.encodedLen(), func(p []byte) {
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

// decoder walks the snapshot bytes with strict bounds checking; every
// take is validated against the remaining length before any slice or
// allocation is derived from it.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

// take returns the next n input bytes after bounds-checking n against
// what remains.
//
// supremmlint:untrusted — the returned bytes are raw input.
func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, fmt.Errorf("store: snapshot truncated at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

// uint32 decodes the next little-endian u32.
//
// supremmlint:untrusted — the result comes straight from input bytes
// and must be bounds-checked before sizing anything.
func (d *decoder) uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// uint64 decodes the next little-endian u64.
//
// supremmlint:untrusted — the result comes straight from input bytes
// and must be bounds-checked before sizing anything.
func (d *decoder) uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// block reads one block header and returns the checksum-verified
// payload for the expected block id.
func (d *decoder) block(wantID uint32) ([]byte, error) {
	id, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if id != wantID {
		return nil, fmt.Errorf("store: snapshot block %d out of order (want %d)", id, wantID)
	}
	length, err := d.uint64()
	if err != nil {
		return nil, err
	}
	sum, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if length > uint64(d.remaining()) {
		return nil, fmt.Errorf("store: snapshot block %d claims %d payload bytes, only %d remain", id, length, d.remaining())
	}
	payload, err := d.take(int(length))
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("store: snapshot block %d checksum mismatch (%08x != %08x)", id, got, sum)
	}
	return payload, nil
}

func decodeInt64s(payload []byte, rows int) ([]int64, error) {
	if len(payload) != rows*8 {
		return nil, fmt.Errorf("store: int64 column payload is %d bytes, want %d", len(payload), rows*8)
	}
	out := make([]int64, rows)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return out, nil
}

func decodeInt32s(payload []byte, rows int) ([]int32, error) {
	if len(payload) != rows*4 {
		return nil, fmt.Errorf("store: int32 column payload is %d bytes, want %d", len(payload), rows*4)
	}
	out := make([]int32, rows)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return out, nil
}

func decodeFloat64s(payload []byte, rows int) ([]float64, error) {
	if len(payload) != rows*8 {
		return nil, fmt.Errorf("store: float64 column payload is %d bytes, want %d", len(payload), rows*8)
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return out, nil
}

func decodeDict(payload []byte, rows int) (DictColumn, error) {
	var out DictColumn
	d := decoder{data: payload}
	dictLen, err := d.uint32()
	if err != nil {
		return out, err
	}
	// Each dictionary entry needs at least its 4-byte length prefix and
	// each row a 4-byte code, so dictLen is bounded by the payload
	// itself — checked before allocating.
	if uint64(dictLen)*4+uint64(rows)*4 > uint64(d.remaining()) {
		return out, fmt.Errorf("store: dictionary claims %d values in %d bytes", dictLen, d.remaining())
	}
	out.Values = make([]string, 0, dictLen)
	seen := make(map[string]bool, dictLen)
	for k := uint32(0); k < dictLen; k++ {
		strLen, err := d.uint32()
		if err != nil {
			return out, err
		}
		raw, err := d.take(int(strLen))
		if err != nil {
			return out, err
		}
		v := string(raw) //supremmlint:allow hotalloc: dictionary values are interned once per distinct string, not per row
		if seen[v] {
			// Duplicate dictionary entries never come out of the encoder
			// and would break the one-group-per-code invariant GroupBy
			// relies on.
			return out, fmt.Errorf("store: dictionary value %q appears twice", v)
		}
		seen[v] = true
		out.Values = append(out.Values, v)
	}
	codes, err := d.take(rows * 4)
	if err != nil {
		return out, err
	}
	if d.remaining() != 0 {
		return out, fmt.Errorf("store: dictionary has %d trailing bytes", d.remaining())
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
	d := decoder{data: data}
	magic, err := d.take(8)
	if err != nil {
		return nil, err
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("store: not a snapshot file (bad magic %q)", magic)
	}
	version, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("store: snapshot version %d not supported (reader knows %d)", version, codecVersion)
	}
	flags, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, fmt.Errorf("store: snapshot uses unknown flags %#x", flags)
	}
	rows64, err := d.uint64()
	if err != nil {
		return nil, err
	}
	// Every row costs at least 4 bytes in each of the 11 fixed-width /
	// code arrays, so a row count the remaining bytes cannot hold is
	// structurally invalid — rejected before any allocation.
	if rows64 > uint64(d.remaining())/4 {
		return nil, fmt.Errorf("store: snapshot claims %d rows in %d bytes", rows64, d.remaining())
	}
	rows := int(rows64)

	c := &Columns{}
	if err := decodeBody(&d, c, rows); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after last block", d.remaining())
	}
	c.recomputeDerived()
	return c, nil
}

// decodeBody reads the 23 canonical blocks into c.
func decodeBody(d *decoder, c *Columns, rows int) error {
	var err error
	int64Col := func(id uint32, dst *[]int64) error {
		payload, berr := d.block(id)
		if berr != nil {
			return berr
		}
		*dst, berr = decodeInt64s(payload, rows)
		return berr
	}
	int32Col := func(id uint32, dst *[]int32) error {
		payload, berr := d.block(id)
		if berr != nil {
			return berr
		}
		*dst, berr = decodeInt32s(payload, rows)
		return berr
	}
	dictCol := func(id uint32, dst *DictColumn) error {
		payload, berr := d.block(id)
		if berr != nil {
			return berr
		}
		*dst, berr = decodeDict(payload, rows)
		return berr
	}
	if err = int64Col(blockJobID, &c.JobID); err != nil {
		return err
	}
	if err = dictCol(blockCluster, &c.Cluster); err != nil {
		return err
	}
	if err = dictCol(blockUser, &c.User); err != nil {
		return err
	}
	if err = dictCol(blockApp, &c.App); err != nil {
		return err
	}
	if err = dictCol(blockScience, &c.Science); err != nil {
		return err
	}
	if err = dictCol(blockStatus, &c.Status); err != nil {
		return err
	}
	if err = int32Col(blockNodes, &c.Nodes); err != nil {
		return err
	}
	if err = int64Col(blockSubmit, &c.Submit); err != nil {
		return err
	}
	if err = int64Col(blockStart, &c.Start); err != nil {
		return err
	}
	if err = int64Col(blockEnd, &c.End); err != nil {
		return err
	}
	if err = int32Col(blockSamples, &c.Samples); err != nil {
		return err
	}
	for k := 0; k < NumMetrics; k++ {
		payload, berr := d.block(uint32(blockMetric0 + k))
		if berr != nil {
			return berr
		}
		if c.Metrics[k], berr = decodeFloat64s(payload, rows); berr != nil {
			return berr
		}
	}
	return nil
}

// SaveBinary writes the store as a binary snapshot (jobs.supremm): the
// bytes of EncodeColumns, streamed piece by piece through one buffer
// the size of the largest block instead of a second copy of the store.
func (s *Store) SaveBinary(w io.Writer) error {
	_, largest := encodedLen(&s.c)
	bw := blockWriter{buf: make([]byte, 0, largest), w: w}
	bw.columns(&s.c)
	return bw.err
}
