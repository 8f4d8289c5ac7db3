package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"ninf/internal/idl"
)

// decodeArgs decodes a monolithic call payload remainder and returns
// only the argument vector (its pooled arrays are left to the GC).
func decodeArgs(info *idl.Info, rest []byte) ([]idl.Value, error) {
	ca, err := DecodeCallArgs(info, rest, nil)
	if err != nil {
		return nil, err
	}
	return ca.Args, nil
}

// decodeReply decodes a reply into fresh destinations sized from
// callArgs and returns the results positionally: arrays as slices,
// scalars by value, nil for parameters that do not ship back.
func decodeReply(info *idl.Info, callArgs []idl.Value, p []byte, bulk *BulkInfo) (Timings, []idl.Value, error) {
	counts, err := info.DimSizes(callArgs)
	if err != nil {
		return Timings{}, nil, err
	}
	dst := make([]any, len(info.Params))
	for i := range info.Params {
		if pa := &info.Params[i]; pa.Mode.Ships(true) {
			dst[i] = newDest(pa, counts[i])
		}
	}
	tm, err := DecodeCallReplyInto(info, callArgs, p, bulk, dst)
	if err != nil {
		return tm, nil, err
	}
	out := make([]idl.Value, len(dst))
	for i, d := range dst {
		switch x := d.(type) {
		case *int64:
			out[i] = *x
		case *float64:
			out[i] = *x
		case *float32:
			out[i] = *x
		case *string:
			out[i] = *x
		default:
			out[i] = d
		}
	}
	return tm, out, nil
}

// newDest allocates a result destination for one parameter.
func newDest(p *idl.Param, count int) any {
	if p.IsScalar() {
		switch p.Type {
		case idl.Int:
			return new(int64)
		case idl.Double:
			return new(float64)
		case idl.Float:
			return new(float32)
		default:
			return new(string)
		}
	}
	switch p.Type {
	case idl.Int:
		return make([]int64, count)
	case idl.Float:
		return make([]float32, count)
	default:
		return make([]float64, count)
	}
}

// rawDecode decodes raw element bytes in byte order le into a fresh
// array of type t.
func rawDecode(t idl.Type, src []byte, le bool) idl.Value {
	raw := make([]byte, len(src))
	reorder(raw, src, le, hostLittle, bulkElemSize(t))
	return viewArray(t, raw)
}

const pairIDL = `Define pair(mode_in int n, mode_out double a[n], mode_out double b[n]) Calls "go" pair(n, a, b);`

// chunkedPair encodes a pair reply (a[i]=i, b[i]=-i) chunked at a low
// threshold and returns it as a reassembled BulkInfo the test may
// patch freely. Head layout: 24 bytes of timings, then a's marker and
// offset words, then b's.
func chunkedPair(t *testing.T, info *idl.Info, n int) *BulkInfo {
	t.Helper()
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i), -float64(i)
	}
	m, err := EncodeCallReplyChunks(info, Timings{Enqueue: 1}, []idl.Value{int64(n), a, b}, 64)
	if err != nil || m == nil {
		t.Fatalf("chunk encode: %v %v", m, err)
	}
	defer m.Release()
	return &BulkInfo{Base: bytes.Join(m.Spans, nil), HeadLen: m.HeadLen(), LE: hostLittle}
}

// sentinelDests returns pair destinations filled with a NaN payload no
// decode produces, and a copy to compare against bit for bit.
func sentinelDests(n int) (dst []any, want [2][]uint64) {
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = math.Float64frombits(0x7ff8dead00000000 | uint64(i))
		b[i] = math.Float64frombits(0x7ff8beef00000000 | uint64(i))
	}
	for k, v := range [][]float64{a, b} {
		for _, f := range v {
			want[k] = append(want[k], math.Float64bits(f))
		}
	}
	return []any{nil, a, b}, want
}

func sameBits(v []float64, want []uint64) bool {
	for i, f := range v {
		if math.Float64bits(f) != want[i] {
			return false
		}
	}
	return true
}

// TestDecodeReplyErrorLeavesDestinations: a reply whose second result
// is bad must not have written its first. Every check runs before the
// first destination is touched.
func TestDecodeReplyErrorLeavesDestinations(t *testing.T) {
	info, err := idl.ParseOne(pairIDL)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	vals := []idl.Value{int64(n), nil, nil}
	cases := map[string]func(bi *BulkInfo) (p []byte, bulk *BulkInfo, dst []any){
		"digest marker in a reply": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			putU32(bi.Base[32:], uint32(n)|bulkArgFlag|bulkDigestFlag)
			return bi.Head(), bi, nil
		},
		"segment out of range": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			putU32(bi.Base[36:], uint32(len(bi.Base)-8))
			return bi.Head(), bi, nil
		},
		"segment inside the head": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			putU32(bi.Base[36:], 0)
			return bi.Head(), bi, nil
		},
		"marker length mismatch": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			putU32(bi.Base[32:], uint32(n-1)|bulkArgFlag)
			return bi.Head(), bi, nil
		},
		"marker in a monolithic payload": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			return bi.Head(), nil, nil
		},
		"destination length mismatch": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			dst, _ := sentinelDests(n)
			dst[2] = dst[2].([]float64)[:n-1]
			return bi.Head(), bi, dst
		},
		"destination type mismatch": func(bi *BulkInfo) ([]byte, *BulkInfo, []any) {
			dst, _ := sentinelDests(n)
			dst[2] = make([]float32, n)
			return bi.Head(), bi, dst
		},
		"truncated inline array": func(*BulkInfo) ([]byte, *BulkInfo, []any) {
			a, b := make([]float64, n), make([]float64, n)
			p, err := EncodeCallReply(info, Timings{}, []idl.Value{int64(n), a, b})
			if err != nil {
				t.Fatal(err)
			}
			return p[:len(p)-4], nil, nil
		},
		"inline length mismatch": func(*BulkInfo) ([]byte, *BulkInfo, []any) {
			a, b := make([]float64, n), make([]float64, n)
			p, err := EncodeCallReply(info, Timings{}, []idl.Value{int64(n), a, b})
			if err != nil {
				t.Fatal(err)
			}
			putU32(p[24+4+8*n:], n-1) // b's count word
			return p, nil, nil
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			p, bulk, dst := corrupt(chunkedPair(t, info, n))
			sentinel, want := sentinelDests(n)
			if dst == nil {
				dst = sentinel
			}
			if _, err := DecodeCallReplyInto(info, vals, p, bulk, dst); err == nil {
				t.Fatal("corrupt reply decoded")
			}
			// a precedes the bad result; b is checked when it is still a
			// full-length double slice.
			if !sameBits(dst[1].([]float64), want[0]) {
				t.Fatal("failed decode wrote the first destination")
			}
			if b, ok := dst[2].([]float64); ok && len(b) == n && !sameBits(b, want[1]) {
				t.Fatal("failed decode wrote the second destination")
			}
		})
	}

	// The uncorrupted reply decodes into the same destinations.
	dst, _ := sentinelDests(n)
	bi := chunkedPair(t, info, n)
	if _, err := DecodeCallReplyInto(info, vals, bi.Head(), bi, dst); err != nil {
		t.Fatal(err)
	}
	if a, b := dst[1].([]float64), dst[2].([]float64); a[n-1] != n-1 || b[n-1] != -(n-1) {
		t.Fatalf("decode results a=%v b=%v", a, b)
	}
}

// TestDecodeReplyNilDestination: a nil destination discards its
// result, skipping the bytes without allocating them, and the results
// after it still land.
func TestDecodeReplyNilDestination(t *testing.T) {
	info, err := idl.ParseOne(pairIDL)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 << 10 // 512 KiB per array
	a, b := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = float64(i)
	}
	vals := []idl.Value{int64(n), nil, nil}
	p, err := EncodeCallReply(info, Timings{}, []idl.Value{int64(n), a, b})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	dst := []any{nil, nil, got}
	if _, err := DecodeCallReplyInto(info, vals, p, nil, dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatal("result after a discarded one corrupted")
	}
	res := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			if _, err := DecodeCallReplyInto(info, vals, p, nil, []any{nil, nil, nil}); err != nil {
				bm.Fatal(err)
			}
		}
	})
	if bpo := res.AllocedBytesPerOp(); bpo > 4<<10 {
		t.Fatalf("discarding two %d-byte results allocates %d B/op", 8*n, bpo)
	}
}

// TestDecodeReplyInoutInPlace: an inout array ships out of and back
// into the same caller slice, on both the monolithic and the chunked
// path.
func TestDecodeReplyInoutInPlace(t *testing.T) {
	info, err := idl.ParseOne(`Define scale(mode_in int n, mode_inout double v[n]) Calls "go" scale(n, v);`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	for _, chunked := range []bool{false, true} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		args := []any{int64(n), v}
		vals := []idl.Value{int64(n), v}
		p, err := EncodeCallRequest(info, &CallRequest{Name: "scale", Args: vals})
		if err != nil {
			t.Fatal(err)
		}
		_, rest, err := DecodeCallName(p)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := DecodeCallArgs(info, rest, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range ca.Args[1].([]float64) {
			ca.Args[1].([]float64)[i] = 2 * x
		}
		var head []byte
		var bulk *BulkInfo
		if chunked {
			m, err := EncodeCallReplyChunks(info, Timings{}, ca.Args, 64)
			if err != nil || m == nil {
				t.Fatalf("chunk encode: %v %v", m, err)
			}
			bulk = &BulkInfo{Base: bytes.Join(m.Spans, nil), HeadLen: m.HeadLen(), LE: hostLittle}
			head = bulk.Head()
			m.Release()
		} else if head, err = EncodeCallReply(info, Timings{}, ca.Args); err != nil {
			t.Fatal(err)
		}
		ca.Release()
		if _, err := DecodeCallReplyInto(info, vals, head, bulk, args); err != nil {
			t.Fatal(err)
		}
		for i, x := range v {
			if x != 2*float64(i) {
				t.Fatalf("chunked=%v: v[%d] = %v, want %v", chunked, i, x, 2*float64(i))
			}
		}
	}
}

// TestDecodeReplyForeignOrderSegment: a segment the sender wrote in
// the other byte order (flags LE=false on a little-endian host) is
// swapped into the destination, per element type.
func TestDecodeReplyForeignOrderSegment(t *testing.T) {
	info, err := idl.ParseOne(`Define mix(mode_in int n, mode_out double d[n], mode_out float f[n], mode_out int i[n]) Calls "go" mix(n, d, f, i);`)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	d, f, iv := make([]float64, n), make([]float32, n), make([]int64, n)
	for k := range d {
		d[k], f[k], iv[k] = math.Pi*float64(k), float32(k)/3, int64(k)<<33-7
	}
	m, err := EncodeCallReplyChunks(info, Timings{}, []idl.Value{int64(n), d, f, iv}, 64)
	if err != nil || m == nil {
		t.Fatalf("chunk encode: %v %v", m, err)
	}
	defer m.Release()
	// Rewrite every segment in the foreign order, as a peer of the
	// other endianness would have sent it.
	var base []byte
	base = append(base, m.Spans[0]...)
	for k, seg := range m.Spans[1:] {
		elem := 8
		if k == 1 {
			elem = 4
		}
		sw := make([]byte, len(seg))
		for j := 0; j < len(seg); j += elem {
			for b := 0; b < elem; b++ {
				sw[j+b] = seg[j+elem-1-b]
			}
		}
		base = append(base, sw...)
	}
	bulk := &BulkInfo{Base: base, HeadLen: m.HeadLen(), LE: !hostLittle}
	gd, gf, gi := make([]float64, n), make([]float32, n), make([]int64, n)
	if _, err := DecodeCallReplyInto(info, []idl.Value{int64(n), nil, nil, nil}, bulk.Head(), bulk, []any{nil, gd, gf, gi}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gd, d) || !reflect.DeepEqual(gf, f) || !reflect.DeepEqual(gi, iv) {
		t.Fatal("foreign-order segments decoded wrong")
	}
}

// TestCallArgsPooledStorage: large arrays draw from the frame pool by
// their exact size (an 8 MiB array stays in the 8 MiB class despite
// the frame header AcquireBuffer reserves), reused out-only storage is
// re-zeroed, and Release is idempotent — a second call must not hand
// the same buffer to the pool twice.
func TestCallArgsPooledStorage(t *testing.T) {
	if fb := acquireRaw(8 << 20); cap(fb.b) != 8<<20 {
		t.Fatalf("8 MiB array storage has capacity %d", cap(fb.b))
	} else {
		fb.Release()
	}
	info := dmmulInfo(t)
	const n = 128 // 128 KiB per matrix: pooled
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), make([]float64, n*n), make([]float64, n*n), nil}}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		ca, err := DecodeCallArgs(info, rest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ca.store[3] == nil {
			t.Fatal("128 KiB out array not pooled")
		}
		c := ca.Args[3].([]float64)
		for i, x := range c {
			if x != 0 {
				t.Fatalf("round %d: reused out array not zeroed at %d", round, i)
			}
			c[i] = 7
		}
		ca.Release()
		ca.Release()
		x, y := acquireRaw(8*n*n), acquireRaw(8*n*n)
		if x == y {
			t.Fatal("double Release pooled one buffer twice")
		}
		x.Release()
		y.Release()
	}
	small := []idl.Value{int64(8), make([]float64, 64), make([]float64, 64), nil}
	sp, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul", Args: small})
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ = DecodeCallName(sp)
	ca, err := DecodeCallArgs(info, rest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ca.store != nil {
		t.Fatal("512-byte arrays drew pooled storage")
	}
}

// TestRawVecReorder pins reorder on both orders for every element width.
func TestRawVecReorder(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, elem := range []int{4, 8} {
		same := make([]byte, 8)
		reorder(same, src, hostLittle, hostLittle, elem)
		if !bytes.Equal(same, src) {
			t.Fatalf("elem %d: native order copied as %v", elem, same)
		}
		sw := make([]byte, 8)
		reorder(sw, src, !hostLittle, hostLittle, elem)
		want := make([]byte, 8)
		if elem == 8 {
			binary.BigEndian.PutUint64(want, binary.LittleEndian.Uint64(src))
		} else {
			binary.BigEndian.PutUint32(want, binary.LittleEndian.Uint32(src))
			binary.BigEndian.PutUint32(want[4:], binary.LittleEndian.Uint32(src[4:]))
		}
		if !bytes.Equal(sw, want) {
			t.Fatalf("elem %d: foreign order swapped to %v, want %v", elem, sw, want)
		}
	}
}
