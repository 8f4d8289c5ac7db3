// Package xdr implements the subset of Sun XDR (RFC 1014) external data
// representation used by the Ninf RPC protocol.
//
// XDR is a big-endian format in which every item occupies a multiple of
// four bytes. Ninf ships scalar arguments and dense numerical arrays in
// XDR, so in addition to the scalar codecs this package provides bulk
// fast paths for []float64, []float32, []int32 and []int64 that encode a
// whole vector with one buffer fill per chunk rather than one Write per
// element.
//
// The zero value of Encoder and Decoder is not usable; construct them
// with NewEncoder and NewDecoder.
package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Wire size constants.
const (
	// unitSize is the XDR basic block size: every encoded item is
	// padded to a multiple of unitSize bytes.
	unitSize = 4

	// DefaultMaxBytes bounds variable-length items (strings, opaque
	// data, arrays) accepted by a Decoder, protecting servers from a
	// corrupt or hostile length prefix. Callers handling large
	// matrices may raise the limit with Decoder.SetMaxBytes.
	DefaultMaxBytes = 1 << 30
)

// Errors returned by the decoder. They are wrapped with contextual detail;
// use errors.Is to test for them.
var (
	// ErrTooLong indicates a variable-length item whose declared
	// length exceeds the decoder's limit.
	ErrTooLong = errors.New("xdr: variable-length item exceeds limit")

	// ErrBadBool indicates a boolean encoded as something other than
	// the canonical 0 or 1.
	ErrBadBool = errors.New("xdr: invalid boolean")

	// ErrNegativeLen indicates a negative length prefix.
	ErrNegativeLen = errors.New("xdr: negative length")
)

var zeroPad [unitSize]byte

// pad returns the number of padding bytes needed to bring n up to a
// multiple of the XDR unit size.
func pad(n int) int { return (unitSize - n%unitSize) % unitSize }

// An Encoder writes XDR-encoded values to an underlying writer.
// Encoders maintain a small scratch buffer and an error latch: after the
// first write error every subsequent method is a no-op returning the
// same error, so call sites may encode a whole message and check the
// error once via Flush or Err.
type Encoder struct {
	w       io.Writer
	scratch [8]byte
	bulk    []byte // chunk buffer for vector fast paths, lazily allocated
	n       int64  // total bytes written
	err     error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Reset rearms the encoder to write to w, clearing the byte count and
// the error latch while keeping the bulk chunk buffer. It lets pooled
// encoders be reused without reallocating their scratch state.
func (e *Encoder) Reset(w io.Writer) {
	e.w = w
	e.n = 0
	e.err = nil
}

// Err reports the first error encountered by the encoder.
func (e *Encoder) Err() error { return e.err }

// Len reports the total number of bytes successfully handed to the
// underlying writer.
func (e *Encoder) Len() int64 { return e.n }

func (e *Encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(p)
	e.n += int64(n)
	if err != nil {
		e.err = fmt.Errorf("xdr: write: %w", err)
	}
}

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	binary.BigEndian.PutUint32(e.scratch[:4], v)
	e.write(e.scratch[:4])
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutInt encodes an int as an XDR hyper (64-bit) so that array sizes
// round-trip exactly on 64-bit hosts.
func (e *Encoder) PutInt(v int) { e.PutInt64(int64(v)) }

// PutUint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) PutUint64(v uint64) {
	binary.BigEndian.PutUint64(e.scratch[:8], v)
	e.write(e.scratch[:8])
}

// PutInt64 encodes a 64-bit signed integer (XDR hyper).
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as the canonical 0 or 1.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutString encodes a counted string with trailing padding.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.write([]byte(s))
	if p := pad(len(s)); p > 0 {
		e.write(zeroPad[:p])
	}
}

// PutOpaque encodes variable-length opaque data (counted bytes plus
// padding).
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutFixedOpaque encodes fixed-length opaque data: the bytes plus
// padding, with no length prefix.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.write(b)
	if p := pad(len(b)); p > 0 {
		e.write(zeroPad[:p])
	}
}

// chunk returns the lazily-allocated bulk buffer, sized for fast-path
// vector encoding.
func (e *Encoder) chunk() []byte {
	if e.bulk == nil {
		e.bulk = make([]byte, 8192)
	}
	return e.bulk
}

// PutFloat64s encodes a counted vector of doubles. The elements are
// packed into a chunk buffer so large matrices cost a handful of Write
// calls instead of one per element.
func (e *Encoder) PutFloat64s(v []float64) {
	e.PutUint32(uint32(len(v)))
	buf := e.chunk()
	per := len(buf) / 8
	for len(v) > 0 && e.err == nil {
		n := len(v)
		if n > per {
			n = per
		}
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(buf[i*8:], math.Float64bits(v[i]))
		}
		e.write(buf[:n*8])
		v = v[n:]
	}
}

// PutFloat32s encodes a counted vector of single-precision floats.
func (e *Encoder) PutFloat32s(v []float32) {
	e.PutUint32(uint32(len(v)))
	buf := e.chunk()
	per := len(buf) / 4
	for len(v) > 0 && e.err == nil {
		n := len(v)
		if n > per {
			n = per
		}
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(buf[i*4:], math.Float32bits(v[i]))
		}
		e.write(buf[:n*4])
		v = v[n:]
	}
}

// PutInt32s encodes a counted vector of 32-bit integers.
func (e *Encoder) PutInt32s(v []int32) {
	e.PutUint32(uint32(len(v)))
	buf := e.chunk()
	per := len(buf) / 4
	for len(v) > 0 && e.err == nil {
		n := len(v)
		if n > per {
			n = per
		}
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(buf[i*4:], uint32(v[i]))
		}
		e.write(buf[:n*4])
		v = v[n:]
	}
}

// PutInt64s encodes a counted vector of 64-bit integers.
func (e *Encoder) PutInt64s(v []int64) {
	e.PutUint32(uint32(len(v)))
	buf := e.chunk()
	per := len(buf) / 8
	for len(v) > 0 && e.err == nil {
		n := len(v)
		if n > per {
			n = per
		}
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(buf[i*8:], uint64(v[i]))
		}
		e.write(buf[:n*8])
		v = v[n:]
	}
}

// A Decoder reads XDR-encoded values from an underlying reader. Like
// Encoder it latches the first error; after an error all reads return
// zero values and Err reports the cause.
type Decoder struct {
	r        io.Reader
	scratch  [8]byte
	bulk     []byte
	maxBytes int
	n        int64
	err      error
}

// NewDecoder returns a Decoder reading from r with the default
// variable-length limit.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, maxBytes: DefaultMaxBytes}
}

// Reset rearms the decoder to read from r, clearing the byte count and
// the error latch while keeping the bulk chunk buffer. A zero-value or
// pooled decoder gains the default variable-length limit; a limit set
// with SetMaxBytes is preserved.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.n = 0
	d.err = nil
	if d.maxBytes <= 0 {
		d.maxBytes = DefaultMaxBytes
	}
}

// SetMaxBytes adjusts the limit on variable-length items. Limits that
// are not positive are ignored.
func (d *Decoder) SetMaxBytes(n int) {
	if n > 0 {
		d.maxBytes = n
	}
}

// Err reports the first error encountered by the decoder.
func (d *Decoder) Err() error { return d.err }

// Len reports the total number of bytes consumed.
func (d *Decoder) Len() int64 { return d.n }

func (d *Decoder) read(p []byte) bool {
	if d.err != nil {
		return false
	}
	n, err := io.ReadFull(d.r, p)
	d.n += int64(n)
	if err != nil {
		d.err = fmt.Errorf("xdr: read: %w", err)
		return false
	}
	return true
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if !d.read(d.scratch[:4]) {
		return 0
	}
	return binary.BigEndian.Uint32(d.scratch[:4])
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if !d.read(d.scratch[:8]) {
		return 0
	}
	return binary.BigEndian.Uint64(d.scratch[:8])
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int decodes an int encoded with Encoder.PutInt.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool decodes a canonical XDR boolean.
func (d *Decoder) Bool() bool {
	switch d.Uint32() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = ErrBadBool
		}
		return false
	}
}

// Float32 decodes a single-precision float.
func (d *Decoder) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Float64 decodes a double-precision float.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// length decodes and validates a length prefix for an item whose
// elements are elemSize bytes each.
func (d *Decoder) length(elemSize int) int {
	v := d.Int32()
	if d.err != nil {
		return 0
	}
	if v < 0 {
		d.err = fmt.Errorf("%w: %d", ErrNegativeLen, v)
		return 0
	}
	n := int(v)
	if n > d.maxBytes/elemSize {
		d.err = fmt.Errorf("%w: %d elements of %d bytes (limit %d bytes)", ErrTooLong, n, elemSize, d.maxBytes)
		return 0
	}
	return n
}

// String decodes a counted string.
func (d *Decoder) String() string {
	n := d.length(1)
	if d.err != nil {
		return ""
	}
	b := make([]byte, n+pad(n))
	if !d.read(b) {
		return ""
	}
	return string(b[:n])
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() []byte {
	n := d.length(1)
	if d.err != nil {
		return nil
	}
	b := make([]byte, n+pad(n))
	if !d.read(b) {
		return nil
	}
	return b[:n:n]
}

// FixedOpaque decodes n opaque bytes plus padding.
func (d *Decoder) FixedOpaque(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 {
		d.err = fmt.Errorf("%w: %d", ErrNegativeLen, n)
		return nil
	}
	b := make([]byte, n+pad(n))
	if !d.read(b) {
		return nil
	}
	return b[:n:n]
}

func (d *Decoder) chunk() []byte {
	if d.bulk == nil {
		d.bulk = make([]byte, 8192)
	}
	return d.bulk
}

// Skip consumes n bytes without decoding them: the element bytes of
// an array the caller reads (or discards) straight from the payload. A
// bytes.Reader source seeks past them; any other reader is drained
// through the chunk buffer.
func (d *Decoder) Skip(n int) {
	if d.err != nil {
		return
	}
	if n < 0 {
		d.err = fmt.Errorf("%w: %d", ErrNegativeLen, n)
		return
	}
	if br, ok := d.r.(*bytes.Reader); ok {
		if n > br.Len() {
			d.err = fmt.Errorf("xdr: read: %w", io.ErrUnexpectedEOF)
			return
		}
		br.Seek(int64(n), io.SeekCurrent) // cannot fail: n is in range
		d.n += int64(n)
		return
	}
	buf := d.chunk()
	for n > 0 {
		m := min(n, len(buf))
		if !d.read(buf[:m]) {
			return
		}
		n -= m
	}
}

// Float64s decodes a counted vector of doubles.
func (d *Decoder) Float64s() []float64 {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	return d.Float64Vec(n)
}

// vecLen validates an externally-supplied element count against the
// decoder's variable-length limit, for vectors whose count was read out
// of band (the protocol layer's bulk-argument markers carry the count
// separately from the element stream).
func (d *Decoder) vecLen(n, elemSize int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 {
		d.err = fmt.Errorf("%w: %d", ErrNegativeLen, n)
		return false
	}
	if n > d.maxBytes/elemSize {
		d.err = fmt.Errorf("%w: %d elements of %d bytes (limit %d bytes)", ErrTooLong, n, elemSize, d.maxBytes)
		return false
	}
	return true
}

// Float64Vec decodes n doubles with no length prefix.
func (d *Decoder) Float64Vec(n int) []float64 {
	if !d.vecLen(n, 8) {
		return nil
	}
	out := make([]float64, n)
	d.readFloat64s(out)
	return out
}

// ReadFloat64sInto decodes a counted vector of doubles into dst, which
// must have exactly the encoded length. It avoids an allocation when
// the caller owns the destination (mode_out arguments).
func (d *Decoder) ReadFloat64sInto(dst []float64) {
	n := d.length(8)
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.err = fmt.Errorf("xdr: vector length %d does not match destination %d", n, len(dst))
		return
	}
	d.readFloat64s(dst)
}

func (d *Decoder) readFloat64s(out []float64) {
	buf := d.chunk()
	per := len(buf) / 8
	for len(out) > 0 && d.err == nil {
		n := len(out)
		if n > per {
			n = per
		}
		if !d.read(buf[:n*8]) {
			return
		}
		for i := 0; i < n; i++ {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[i*8:]))
		}
		out = out[n:]
	}
}

// Float32s decodes a counted vector of single-precision floats.
func (d *Decoder) Float32s() []float32 {
	n := d.length(4)
	if d.err != nil {
		return nil
	}
	return d.Float32Vec(n)
}

// Float32Vec decodes n single-precision floats with no length prefix.
func (d *Decoder) Float32Vec(n int) []float32 {
	if !d.vecLen(n, 4) {
		return nil
	}
	out := make([]float32, n)
	buf := d.chunk()
	per := len(buf) / 4
	for i := 0; i < n && d.err == nil; {
		m := n - i
		if m > per {
			m = per
		}
		if !d.read(buf[:m*4]) {
			return out
		}
		for j := 0; j < m; j++ {
			out[i+j] = math.Float32frombits(binary.BigEndian.Uint32(buf[j*4:]))
		}
		i += m
	}
	return out
}

// Int32s decodes a counted vector of 32-bit integers.
func (d *Decoder) Int32s() []int32 {
	n := d.length(4)
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	buf := d.chunk()
	per := len(buf) / 4
	for i := 0; i < n && d.err == nil; {
		m := n - i
		if m > per {
			m = per
		}
		if !d.read(buf[:m*4]) {
			return out
		}
		for j := 0; j < m; j++ {
			out[i+j] = int32(binary.BigEndian.Uint32(buf[j*4:]))
		}
		i += m
	}
	return out
}

// Int64s decodes a counted vector of 64-bit integers.
func (d *Decoder) Int64s() []int64 {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	return d.Int64Vec(n)
}

// Int64Vec decodes n 64-bit integers with no length prefix.
func (d *Decoder) Int64Vec(n int) []int64 {
	if !d.vecLen(n, 8) {
		return nil
	}
	out := make([]int64, n)
	buf := d.chunk()
	per := len(buf) / 8
	for i := 0; i < n && d.err == nil; {
		m := n - i
		if m > per {
			m = per
		}
		if !d.read(buf[:m*8]) {
			return out
		}
		for j := 0; j < m; j++ {
			out[i+j] = int64(binary.BigEndian.Uint64(buf[j*8:]))
		}
		i += m
	}
	return out
}

// SizeString reports the encoded size in bytes of a string of length n,
// including the length prefix and padding. Used by the performance
// model and by the protocol layer to pre-compute frame lengths.
func SizeString(n int) int { return 4 + n + pad(n) }

// SizeOpaque reports the encoded size of n opaque bytes (counted form).
func SizeOpaque(n int) int { return 4 + n + pad(n) }

// SizeFloat64s reports the encoded size of an n-element double vector.
func SizeFloat64s(n int) int { return 4 + 8*n }
