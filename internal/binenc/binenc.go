// Package binenc is the append encoder and the bounded decoder the
// binary warm-failover checkpoint is written and read with. Every level
// of a checkpoint — server, engine, controller, detector, model —
// appends into one caller-owned buffer through an Encoder, and reads
// back through a Decoder over the same bytes.
//
// Primitives (all fixed-width integers little-endian; varints are
// encoding/binary uvarint/varint):
//
//	header   magic bytes, then u8 version
//	uvarint  counts, lengths and other non-negative integers
//	varint   signed integers (zigzag)
//	float64  raw IEEE-754 bits, u64
//	floats   uvarint n, then n × float64
//	string   uvarint length, then the bytes
//	section  u32 length, then that many bytes
//	counts   uvarint n, then tokens covering exactly n cells: a uvarint
//	         x whose low bit is 0 is one count x>>1 (at most 2^32-1);
//	         one whose low bit is 1 is a run of (x>>1)+1 zero cells (at
//	         most MaxRun)
//
// The Decoder's error is sticky: after the first failure every read
// returns a zero value, so a caller decodes a whole structure and
// checks Err once. Every length is checked against the bytes that
// remain before anything is sized from it, so a hostile document cannot
// ask for more memory than a multiple of its own size: 8 bytes a byte
// for a float list, and at most MaxRun cells, 512 bytes, a byte for a
// count block, whose zero runs are what makes a checkpoint small.
package binenc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// MaxRun is the most zero cells one token of a count block covers, so
// a block of n cells takes at least n/MaxRun bytes. It keeps a run token
// at one byte.
const MaxRun = 64

// maxCount bounds one cell of a count block.
const maxCount = math.MaxUint32

// Errors wrapped by every decode failure of their kind.
var (
	// ErrCorrupt: the document is truncated, a length runs past its end,
	// or a value is out of range for its field.
	ErrCorrupt = errors.New("binenc: corrupt document")
	// ErrJSON: the document is JSON — a format the binary checkpoint
	// replaced — where a binary document was expected.
	ErrJSON = errors.New("binenc: JSON document, want a binary checkpoint")
	// ErrVersion: the magic matches but the version is not the one
	// this build reads.
	ErrVersion = errors.New("binenc: unsupported version")
)

// Encoder appends to one buffer. Its error is sticky: Finish reports
// the first failure, and appends after it are dropped.
type Encoder struct {
	buf []byte
	err error
}

// NewEncoder returns an encoder that appends to b.
func NewEncoder(b []byte) Encoder { return Encoder{buf: b} }

// Finish returns the encoded bytes and the first error.
func (e *Encoder) Finish() ([]byte, error) { return e.buf, e.err }

// Fail records err unless an earlier error is already recorded.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Header appends magic and version.
func (e *Encoder) Header(magic string, version byte) {
	e.buf = append(e.buf, magic...)
	e.buf = append(e.buf, version)
}

// Uvarint appends v.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends v as a zigzag varint.
func (e *Encoder) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends b as one byte.
func (e *Encoder) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

// Float64 appends the raw bits of f.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// Floats appends len(xs) and the raw bits of each element.
func (e *Encoder) Floats(xs []float64) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.Float64(x)
	}
}

// Ints appends len(xs) and each element as a zigzag varint.
func (e *Encoder) Ints(xs []int) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.Int(int64(x))
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// JSON appends v's JSON encoding as a length-prefixed string. It is for
// the small scalar headers (names, configuration, options) that need no
// second codec of their own.
func (e *Encoder) JSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		e.Fail(fmt.Errorf("binenc: encode header: %w", err))
		return
	}
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Begin opens a section: it appends a placeholder u32 length prefix
// and returns its position for End.
func (e *Encoder) Begin() int {
	e.buf = append(e.buf, 0, 0, 0, 0)
	return len(e.buf) - 4
}

// End closes the section Begin opened at mark, patching its length.
func (e *Encoder) End(mark int) {
	n := len(e.buf) - mark - 4
	if n > math.MaxUint32 {
		e.Fail(fmt.Errorf("binenc: section of %d bytes exceeds the u32 length prefix", n))
		return
	}
	binary.LittleEndian.PutUint32(e.buf[mark:], uint32(n))
}

// Section appends whatever write appends as one section.
func (e *Encoder) Section(write func(b []byte) ([]byte, error)) {
	if e.err != nil {
		return
	}
	mark := e.Begin()
	b, err := write(e.buf)
	e.buf = b
	if err != nil {
		e.Fail(err)
		return
	}
	e.End(mark)
}

// Counts appends a count block over rows taken as one stream of cells.
// Every cell must be a whole number in [0, 2^32-1].
func (e *Encoder) Counts(rows [][]float64) {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	buf := binary.AppendUvarint(e.buf, uint64(n))
	run := 0 // zero cells not yet written
	for _, row := range rows {
		for j := 0; j < len(row); {
			x := row[j]
			if x == 0 {
				k := j + 1
				for k < len(row) && row[k] == 0 {
					k++
				}
				run += k - j
				j = k
				continue
			}
			j++
			for ; run > 0; run -= min(run, MaxRun) {
				buf = append(buf, byte(min(run, MaxRun)-1)<<1|1)
			}
			if !(x > 0 && x <= maxCount) || x != float64(uint32(x)) {
				e.Fail(fmt.Errorf("binenc: count %v is not a whole number in [0, %d]", x, uint32(maxCount)))
				return
			}
			if v := uint64(x) << 1; v < 0x80 {
				buf = append(buf, byte(v))
			} else {
				buf = binary.AppendUvarint(buf, v)
			}
		}
	}
	for ; run > 0; run -= min(run, MaxRun) {
		buf = append(buf, byte(min(run, MaxRun)-1)<<1|1)
	}
	e.buf = buf
}

// Decoder reads a document appended by an Encoder. Its error is sticky.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an earlier error is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// corrupt fails the decoder with an ErrCorrupt wrapping the message.
func (d *Decoder) corrupt(format string, args ...any) {
	d.Fail(fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...))
}

// Remaining returns the number of bytes not yet read.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns the first failure or, if there is none, an error when
// bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.corrupt("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Header reads and checks magic and version. A document that begins as
// JSON fails with ErrJSON, a matching magic with another version with
// ErrVersion.
func (d *Decoder) Header(magic string, version byte) {
	if d.err != nil {
		return
	}
	rest := d.b[d.off:]
	for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\r' || rest[0] == '\n') {
		rest = rest[1:]
	}
	if len(rest) > 0 && rest[0] == '{' {
		d.Fail(ErrJSON)
		return
	}
	if d.Remaining() < len(magic)+1 || string(d.b[d.off:d.off+len(magic)]) != magic {
		d.corrupt("missing %q magic", magic)
		return
	}
	d.off += len(magic)
	if v := d.b[d.off]; v != version {
		d.Fail(fmt.Errorf("%w %d (this build reads %q version %d)", ErrVersion, v, magic, version))
		return
	}
	d.off++
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.corrupt("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint as an int64.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.corrupt("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.corrupt("truncated at byte %d", d.off)
		return false
	}
	v := d.b[d.off]
	if v > 1 {
		d.corrupt("bool byte %d at byte %d", v, d.off)
		return false
	}
	d.off++
	return v == 1
}

// Float64 reads raw float64 bits.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.corrupt("truncated at byte %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Len reads a uvarint element count and checks that that many elements
// of at least minBytes each fit in the bytes that remain.
func (d *Decoder) Len(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.corrupt("%d elements of at least %d bytes in %d remaining", n, minBytes, d.Remaining())
		return 0
	}
	return int(n)
}

// Floats reads a float list; an empty one decodes as nil.
func (d *Decoder) Floats() []float64 {
	n := d.Len(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float64()
	}
	return out
}

// Ints reads a varint list; an empty one decodes as nil.
func (d *Decoder) Ints() []int {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		v := d.Int()
		if v != int64(int(v)) {
			d.corrupt("int %d out of range", v)
		}
		out[i] = int(v)
	}
	return out
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *Decoder) bytes() []byte {
	n := d.Len(1)
	if d.err != nil {
		return nil
	}
	b := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.bytes()) }

// JSON reads a length-prefixed JSON header into v.
func (d *Decoder) JSON(v any) {
	b := d.bytes()
	if d.err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		d.Fail(fmt.Errorf("%w: header: %v", ErrCorrupt, err))
	}
}

// Section reads a u32 length prefix and returns that many bytes,
// aliasing the input.
func (d *Decoder) Section() []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < 4 {
		d.corrupt("truncated section prefix at byte %d", d.off)
		return nil
	}
	n := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	if uint64(n) > uint64(d.Remaining()) {
		d.corrupt("section of %d bytes at byte %d, %d remain", n, d.off, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// Nested reads a section and runs read over it, failing unless read
// consumes exactly the section.
func (d *Decoder) Nested(read func(d *Decoder)) {
	sec := d.Section()
	if d.err != nil {
		return
	}
	sd := NewDecoder(sec)
	read(&sd)
	if err := sd.Finish(); err != nil {
		d.Fail(err)
	}
}

// Counts reads a count block into one flat slice of whole-number
// float64 cells.
func (d *Decoder) Counts() []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining())*MaxRun {
		d.corrupt("count block of %d cells cannot fit in %d bytes", n, d.Remaining())
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < len(out); {
		x := d.Uvarint()
		if d.err != nil {
			return nil
		}
		if x&1 == 0 {
			if x>>1 > maxCount {
				d.corrupt("count %d above %d", x>>1, uint32(maxCount))
				return nil
			}
			out[i] = float64(x >> 1)
			i++
			continue
		}
		run := x>>1 + 1
		if run > MaxRun || run > uint64(len(out)-i) {
			d.corrupt("zero run of %d at cell %d of %d", run, i, len(out))
			return nil
		}
		i += int(run)
	}
	return out
}
