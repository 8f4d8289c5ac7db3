package xdr

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, fill func(*Encoder), check func(*Decoder)) {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	fill(e)
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if buf.Len()%4 != 0 {
		t.Fatalf("encoded length %d is not a multiple of 4", buf.Len())
	}
	if e.Len() != int64(buf.Len()) {
		t.Fatalf("encoder Len=%d, buffer %d", e.Len(), buf.Len())
	}
	d := NewDecoder(&buf)
	check(d)
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after decode", buf.Len())
	}
}

func TestScalarRoundTrip(t *testing.T) {
	roundTrip(t,
		func(e *Encoder) {
			e.PutInt32(-42)
			e.PutUint32(0xdeadbeef)
			e.PutInt64(-1 << 62)
			e.PutUint64(math.MaxUint64)
			e.PutBool(true)
			e.PutBool(false)
			e.PutFloat32(3.5)
			e.PutFloat64(-2.718281828459045)
			e.PutInt(123456789)
		},
		func(d *Decoder) {
			if got := d.Int32(); got != -42 {
				t.Errorf("Int32 = %d", got)
			}
			if got := d.Uint32(); got != 0xdeadbeef {
				t.Errorf("Uint32 = %#x", got)
			}
			if got := d.Int64(); got != -1<<62 {
				t.Errorf("Int64 = %d", got)
			}
			if got := d.Uint64(); got != math.MaxUint64 {
				t.Errorf("Uint64 = %d", got)
			}
			if got := d.Bool(); !got {
				t.Errorf("Bool = %v", got)
			}
			if got := d.Bool(); got {
				t.Errorf("Bool = %v", got)
			}
			if got := d.Float32(); got != 3.5 {
				t.Errorf("Float32 = %v", got)
			}
			if got := d.Float64(); got != -2.718281828459045 {
				t.Errorf("Float64 = %v", got)
			}
			if got := d.Int(); got != 123456789 {
				t.Errorf("Int = %v", got)
			}
		})
}

func TestStringPadding(t *testing.T) {
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "abcde", "日本語"} {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.PutString(s)
		if buf.Len()%4 != 0 {
			t.Errorf("PutString(%q): length %d not padded", s, buf.Len())
		}
		if want := SizeString(len(s)); buf.Len() != want {
			t.Errorf("PutString(%q): length %d, SizeString says %d", s, buf.Len(), want)
		}
		d := NewDecoder(&buf)
		if got := d.String(); got != s {
			t.Errorf("String() = %q, want %q", got, s)
		}
		if d.Err() != nil {
			t.Errorf("decode %q: %v", s, d.Err())
		}
	}
}

func TestOpaque(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	roundTrip(t,
		func(e *Encoder) { e.PutOpaque(data); e.PutFixedOpaque(data) },
		func(d *Decoder) {
			if got := d.Opaque(); !bytes.Equal(got, data) {
				t.Errorf("Opaque = %v", got)
			}
			if got := d.FixedOpaque(len(data)); !bytes.Equal(got, data) {
				t.Errorf("FixedOpaque = %v", got)
			}
		})
}

func TestVectors(t *testing.T) {
	f64 := []float64{0, 1, -1, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	f32 := []float32{0, 2.5, -1e30}
	i32 := []int32{0, -5, math.MaxInt32, math.MinInt32}
	i64 := []int64{0, -5, math.MaxInt64, math.MinInt64}
	roundTrip(t,
		func(e *Encoder) {
			e.PutFloat64s(f64)
			e.PutFloat32s(f32)
			e.PutInt32s(i32)
			e.PutInt64s(i64)
		},
		func(d *Decoder) {
			if got := d.Float64s(); !reflect.DeepEqual(got, f64) {
				t.Errorf("Float64s = %v", got)
			}
			if got := d.Float32s(); !reflect.DeepEqual(got, f32) {
				t.Errorf("Float32s = %v", got)
			}
			if got := d.Int32s(); !reflect.DeepEqual(got, i32) {
				t.Errorf("Int32s = %v", got)
			}
			if got := d.Int64s(); !reflect.DeepEqual(got, i64) {
				t.Errorf("Int64s = %v", got)
			}
		})
}

func TestLargeVectorCrossesChunks(t *testing.T) {
	v := make([]float64, 5000) // larger than the 8192-byte chunk
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	roundTrip(t,
		func(e *Encoder) { e.PutFloat64s(v) },
		func(d *Decoder) {
			got := d.Float64s()
			if !reflect.DeepEqual(got, v) {
				t.Error("large Float64s round trip mismatch")
			}
		})
}

func TestReadFloat64sInto(t *testing.T) {
	v := []float64{1, 2, 3}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutFloat64s(v)

	dst := make([]float64, 3)
	d := NewDecoder(&buf)
	d.ReadFloat64sInto(dst)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if !reflect.DeepEqual(dst, v) {
		t.Errorf("got %v", dst)
	}

	// Mismatched destination length must error.
	buf.Reset()
	e = NewEncoder(&buf)
	e.PutFloat64s(v)
	d = NewDecoder(&buf)
	d.ReadFloat64sInto(make([]float64, 2))
	if d.Err() == nil {
		t.Error("length mismatch not detected")
	}
}

func TestSkip(t *testing.T) {
	var enc bytes.Buffer
	e := NewEncoder(&enc)
	e.PutFloat64s([]float64{1, 2, 3})
	e.PutUint32(7)
	wire := enc.Bytes()

	// A bytes.Reader seeks; any other reader drains through the chunk
	// buffer. Both must land on the word after the skipped elements.
	for name, r := range map[string]func() io.Reader{
		"seek":  func() io.Reader { return bytes.NewReader(wire) },
		"drain": func() io.Reader { return bytes.NewBuffer(append([]byte(nil), wire...)) },
	} {
		d := NewDecoder(r())
		if n := d.Uint32(); n != 3 {
			t.Fatalf("%s: count %d", name, n)
		}
		d.Skip(24)
		if v := d.Uint32(); d.Err() != nil || v != 7 {
			t.Fatalf("%s: after skip got %d, %v", name, v, d.Err())
		}
		if d.Len() != int64(len(wire)) {
			t.Fatalf("%s: Len %d, want %d", name, d.Len(), len(wire))
		}
		d.Skip(1)
		if d.Err() == nil {
			t.Fatalf("%s: skip past the end not detected", name)
		}
	}
}

func TestQuickRoundTripFloat64s(t *testing.T) {
	f := func(v []float64) bool {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.PutFloat64s(v)
		if e.Err() != nil {
			return false
		}
		d := NewDecoder(&buf)
		got := d.Float64s()
		if d.Err() != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			// NaNs do not compare equal; compare bit patterns.
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripStrings(t *testing.T) {
	f := func(s string, u uint32, i int64) bool {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.PutString(s)
		e.PutUint32(u)
		e.PutInt64(i)
		d := NewDecoder(&buf)
		return d.String() == s && d.Uint32() == u && d.Int64() == i && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecoderLimits(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutUint32(uint32(DefaultMaxBytes)) // absurd length prefix with no data
	d := NewDecoder(&buf)
	d.SetMaxBytes(16)
	_ = d.String()
	if !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", d.Err())
	}

	// Negative length.
	buf.Reset()
	e = NewEncoder(&buf)
	e.PutInt32(-1)
	d = NewDecoder(&buf)
	d.Opaque()
	if !errors.Is(d.Err(), ErrNegativeLen) {
		t.Errorf("err = %v, want ErrNegativeLen", d.Err())
	}

	// Oversized vector guarded by element size.
	buf.Reset()
	e = NewEncoder(&buf)
	e.PutUint32(1 << 28)
	d = NewDecoder(&buf)
	d.SetMaxBytes(1 << 20)
	d.Float64s()
	if !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", d.Err())
	}
}

func TestBadBool(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutUint32(2)
	d := NewDecoder(&buf)
	d.Bool()
	if !errors.Is(d.Err(), ErrBadBool) {
		t.Errorf("err = %v, want ErrBadBool", d.Err())
	}
}

func TestShortRead(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutFloat64(1.5)
	trunc := buf.Bytes()[:5]
	d := NewDecoder(bytes.NewReader(trunc))
	d.Float64()
	if d.Err() == nil {
		t.Error("short read not detected")
	}
	if !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want wrapped ErrUnexpectedEOF", d.Err())
	}
}

func TestErrorLatch(t *testing.T) {
	// Encoder: failing writer latches the first error.
	e := NewEncoder(failWriter{})
	e.PutUint32(1)
	first := e.Err()
	if first == nil {
		t.Fatal("expected write error")
	}
	e.PutString("more")
	if e.Err() != first {
		t.Error("encoder error not latched")
	}

	// Decoder: after an error, reads return zero values.
	d := NewDecoder(bytes.NewReader(nil))
	_ = d.Uint32()
	derr := d.Err()
	if derr == nil {
		t.Fatal("expected read error")
	}
	if got := d.Float64(); got != 0 {
		t.Errorf("post-error Float64 = %v, want 0", got)
	}
	if d.Err() != derr {
		t.Error("decoder error not latched")
	}
}

func TestDecoderLenAccounting(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutString("hello")
	e.PutFloat64s([]float64{1, 2})
	total := int64(buf.Len())
	d := NewDecoder(&buf)
	_ = d.String()
	d.Float64s()
	if d.Len() != total {
		t.Errorf("decoder consumed %d bytes, want %d", d.Len(), total)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("boom") }

func BenchmarkPutFloat64s(b *testing.B) {
	v := make([]float64, 1<<16)
	for i := range v {
		v[i] = float64(i)
	}
	b.SetBytes(int64(8 * len(v)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(io.Discard)
		e.PutFloat64s(v)
	}
}
