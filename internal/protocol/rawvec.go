package protocol

import (
	"encoding/binary"
	"unsafe"

	"ninf/internal/idl"
)

// Raw vector views for the chunked bulk path. XDR ships arrays
// big-endian, which forces the encoder to copy every element through a
// byte-swapping loop — exactly the grow-and-copy cost the bulk frames
// exist to avoid. A bulk segment instead carries the caller's slice
// memory verbatim, in the sender's native byte order, with the order
// recorded in the MsgBulkBegin flags; the receiver memmoves when the
// orders match and swaps per element when they do not ("receiver makes
// it right"). Monolithic frames never use these views, so v1 peers and
// pre-bulk mux peers only ever see canonical XDR.

// hostLittle reports this machine's byte order, probed once.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// rawView views a numeric array ([]float64, []float32 or []int64) as
// its raw native-order bytes and reports the array's IDL element type;
// ok is false for any other value. The view aliases v: the caller must
// not let it outlive v or mutate v while the view is referenced by an
// in-flight write.
func rawView(v any) (b []byte, t idl.Type, ok bool) {
	var p unsafe.Pointer
	var n int
	switch x := v.(type) {
	case []float64:
		p, n, t = unsafe.Pointer(unsafe.SliceData(x)), len(x)*8, idl.Double
	case []float32:
		p, n, t = unsafe.Pointer(unsafe.SliceData(x)), len(x)*4, idl.Float
	case []int64:
		p, n, t = unsafe.Pointer(unsafe.SliceData(x)), len(x)*8, idl.Int
	default:
		return nil, 0, false
	}
	if n == 0 {
		return nil, t, true
	}
	return unsafe.Slice((*byte)(p), n), t, true
}

// viewArray views raw element storage as an array of type t (Int,
// Double or Float). The view aliases raw.
func viewArray(t idl.Type, raw []byte) idl.Value {
	p := unsafe.Pointer(unsafe.SliceData(raw))
	switch t {
	case idl.Double:
		return unsafe.Slice((*float64)(p), len(raw)/8)
	case idl.Float:
		return unsafe.Slice((*float32)(p), len(raw)/4)
	default:
		return unsafe.Slice((*int64)(p), len(raw)/8)
	}
}

// reorder copies element bytes src, stored in byte order fromLE, into
// dst in byte order toLE. Matching orders cost one memmove; otherwise
// each elem-byte element is swapped on the way (a swap is its own
// inverse, so one loop serves both directions).
func reorder(dst, src []byte, fromLE, toLE bool, elem int) {
	if fromLE == toLE {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	if elem == 4 {
		for i := 0; i+4 <= len(src); i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], binary.BigEndian.Uint32(src[i:]))
		}
		return
	}
	for i := 0; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.BigEndian.Uint64(src[i:]))
	}
}
