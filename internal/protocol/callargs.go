package protocol

import (
	"fmt"
	"io"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// Call data lands where it is used: a server decodes each array
// argument once, into the storage its executable receives, and a
// client decodes each result once, into the caller's slice. The
// element bytes are found in place (a bulk segment, a cached entry, or
// an inline XDR array, which is big-endian element bytes) and moved by
// one raw copy.

// pooledArrayMin is the smallest array, in bytes, given pooled storage.
// Below Go's 32 KiB large-object boundary the allocator's per-P caches
// make a fresh slice cheaper than a pool round trip.
const pooledArrayMin = 32 << 10

// CallArgs is one decoded MsgCall or MsgSubmit request: the positional
// argument vector, the optional trailers, and the pooled storage behind
// its large arrays. Whoever holds a CallArgs owns that storage and must
// Release it once nothing reads Args any more.
type CallArgs struct {
	// Args holds one entry per IDL parameter: decoded in-shipping
	// values, and zeroed destinations for out-only parameters.
	Args []idl.Value
	// Deadline is the caller's absolute deadline in Unix nanoseconds,
	// or zero when the client sent none.
	Deadline int64
	// Retain reports the client's result-retention request.
	Retain bool

	store []*Buffer    // pooled backing per parameter; nil where heap-allocated
	args  [4]idl.Value // backs Args for short parameter lists
}

// Release returns the pooled array storage to the frame pool. Args
// must not be read afterwards. Idempotent, and nil-safe.
func (c *CallArgs) Release() {
	if c == nil {
		return
	}
	for _, fb := range c.store {
		fb.Release()
	}
	c.store = nil
}

// Disown hands parameter i's array to another owner that aliases it
// (the server's argument cache). Release then leaves that storage to
// the garbage collector instead of returning it to the pool.
func (c *CallArgs) Disown(i int) {
	if i < len(c.store) {
		c.store[i] = nil
	}
}

// array gives parameter i an n-element array of type t and returns it
// with its raw byte view. Large arrays come from the frame pool, whose
// memory is reused dirty: zero clears it (out-only arrays start zeroed,
// as executables expect). A heap array is a zeroed []byte viewed as
// t; the allocator aligns it for t's elements.
func (c *CallArgs) array(i int, t idl.Type, n int, zero bool) (idl.Value, []byte) {
	size := n * bulkElemSize(t)
	var raw []byte
	if size >= pooledArrayMin {
		if fb := acquireRaw(size); fb != nil {
			if c.store == nil {
				c.store = make([]*Buffer, len(c.Args))
			}
			c.store[i] = fb
			raw = fb.b[:size:size]
			if zero {
				clear(raw)
			}
		}
	}
	if raw == nil {
		raw = make([]byte, size)
	}
	return viewArray(t, raw), raw
}

// DecodeCallArgs decodes the in-shipping arguments of a MsgCall or
// MsgSubmit payload against its interface and gives out-only
// parameters zeroed values for the executable to fill.
//
// rest is the payload remainder after DecodeCallName. For a
// reassembled chunked request it is the remainder of the head
// (bulk.Head()), and bulk supplies the segments its marker words point
// into; a nil bulk decodes a monolithic payload and rejects markers.
// Arrays are copied out of rest and bulk, so the caller may release
// the frame as soon as this returns. The caller owns the result and
// must Release it.
func DecodeCallArgs(info *idl.Info, rest []byte, bulk *BulkInfo) (*CallArgs, error) {
	ca := new(CallArgs)
	ca.Args = append(ca.args[:0], make([]idl.Value, len(info.Params))...)
	if err := ca.decode(info, rest, bulk); err != nil {
		ca.Release()
		return nil, err
	}
	return ca, nil
}

// decode fills ca from a call payload; see DecodeCallArgs.
//
//ninflint:hotpath
func (ca *CallArgs) decode(info *idl.Info, rest []byte, bulk *BulkInfo) error {
	pd := acquireDecoder(rest)
	defer pd.release()
	d := &pd.d
	vals, err := walk(pd, info, false, bulk)
	if err != nil {
		return err
	}
	// Optional magic-tagged trailers after the args: the caller
	// deadline ("NFDL", 12 bytes) and the result-retention flag
	// ("NFRT", 8 bytes), in that encode order. Unknown magics end the
	// scan, so future trailers are skipped, not misparsed.
trailers:
	for d.Err() == nil {
		switch rem := len(rest) - int(d.Len()); {
		case rem >= 12:
			switch d.Uint32() {
			case callDeadlineMagic:
				ca.Deadline = d.Int64()
			case callRetainMagic:
				ca.Retain = d.Uint32() != 0
			default:
				break trailers
			}
		case rem >= 8:
			if d.Uint32() != callRetainMagic {
				break trailers
			}
			ca.Retain = d.Uint32() != 0
		default:
			break trailers
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	// The IDL checker lets dimensions name only earlier scalars, so
	// evaluating them once every scalar is in matches Ninf_call's
	// left-to-right interpreter.
	for _, v := range vals {
		if info.Params[v.i].IsScalar() {
			ca.Args[v.i] = v.scalar
		}
	}
	counts, err := info.DimSizesInto(pd.counts, ca.Args)
	if err != nil {
		return err
	}
	pd.counts = counts
	for k := range vals {
		v := &vals[k]
		p := &info.Params[v.i]
		if p.IsScalar() {
			continue
		}
		if err := v.check(p, counts[v.i]); err != nil {
			return fmt.Errorf("protocol: %s argument %q: %w", info.Name, p.Name, err)
		}
		elem := bulkElemSize(p.Type)
		if v.seg && bulk.Resolver != nil {
			// A cache-enabled receiver retains the uploaded bytes so
			// the next call can reference them by digest. The resolver
			// copies; src aliases the reassembly buffer.
			bulk.Resolver.RetainSegment(v.src, v.le, elem)
		}
		arr, raw := ca.array(v.i, p.Type, v.n, false)
		reorder(raw, v.src, v.le, hostLittle, elem)
		ca.Args[v.i] = arr
	}
	for i := range info.Params {
		p := &info.Params[i]
		switch {
		case p.Mode != idl.Out:
		case p.IsScalar():
			ca.Args[i] = zeroScalar(p.Type)
		case !isNumeric(p.Type):
		case counts[i] < 0 || counts[i] > xdr.DefaultMaxBytes/bulkElemSize(p.Type):
			return fmt.Errorf("protocol: %s result %q: %d elements exceed the %d-byte limit", info.Name, p.Name, counts[i], xdr.DefaultMaxBytes)
		default:
			ca.Args[i], _ = ca.array(i, p.Type, counts[i], true)
		}
	}
	return nil
}

// DecodeCallReplyInto decodes a MsgCallOK or MsgFetchOK payload
// straight into the caller's destinations and returns the server
// timings. callArgs supplies the scalar inputs that size the result
// arrays. dst has one entry per parameter; for an out-shipping one it
// is nil (the result's bytes are skipped, never allocated), a slice of
// the parameter's element type and exact IDL length, or a pointer
// (*int64, *float64, *float32, *string) for a scalar.
//
// p is the payload, or for a reassembled chunked reply its head
// (bulk.Head()) with bulk supplying the segments. Every marker,
// length, range and destination is checked before the first
// destination is written, so on error dst is left untouched.
//
//ninflint:hotpath
func DecodeCallReplyInto(info *idl.Info, callArgs []idl.Value, p []byte, bulk *BulkInfo, dst []any) (Timings, error) {
	var tm Timings
	if len(dst) != len(info.Params) {
		return tm, fmt.Errorf("protocol: %s has %d parameters, got %d destinations", info.Name, len(info.Params), len(dst))
	}
	pd := acquireDecoder(p)
	defer pd.release()
	counts, err := info.DimSizesInto(pd.counts, callArgs)
	if err != nil {
		return tm, err
	}
	pd.counts = counts
	tm.decode(&pd.d)
	vals, err := walk(pd, info, true, bulk)
	if err != nil {
		return tm, err
	}
	for k := range vals {
		v := &vals[k]
		pa := &info.Params[v.i]
		err := v.check(pa, counts[v.i])
		if err == nil {
			err = putResult(dst[v.i], pa, counts[v.i], v, false)
		}
		if err != nil {
			return tm, fmt.Errorf("protocol: %s result %q: %w", info.Name, pa.Name, err)
		}
	}
	for k := range vals {
		v := &vals[k]
		putResult(dst[v.i], &info.Params[v.i], counts[v.i], v, true)
	}
	return tm, nil
}

// wireValue is one shipped value located in a payload: a decoded
// scalar, or an array's element count and bytes, left in place.
type wireValue struct {
	i      int
	scalar idl.Value
	n      int    // array elements, as the wire states them
	src    []byte // array element bytes, in byte order le
	le     bool
	seg    bool // src is a segment uploaded in this message
}

// check compares an array's wire count with its IDL dimensions.
func (v *wireValue) check(p *idl.Param, count int) error {
	if !p.IsScalar() && v.n != count {
		return fmt.Errorf("array length %d, IDL dimensions give %d", v.n, count)
	}
	return nil
}

// walk reads the values shipping one way (out: a reply's results,
// else a call's arguments) in parameter order, decoding scalars and
// locating arrays without copying them. The returned slice is pd's
// scratch, valid until pd is released.
//
//ninflint:hotpath
//ninflint:owner borrow — reads through pd; the decode that acquired it releases it
func walk(pd *payloadDecoder, info *idl.Info, out bool, bulk *BulkInfo) ([]wireValue, error) {
	vals := pd.vals[:0]
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(out) {
			continue
		}
		v := wireValue{i: i}
		var err error
		if p.IsScalar() {
			v.scalar, err = decodeScalar(&pd.d, p)
		} else {
			err = locateArray(pd, p, bulk, &v)
		}
		if err != nil {
			what := "argument"
			if out {
				what = "result"
			}
			return nil, fmt.Errorf("protocol: %s %s %q: %w", info.Name, what, p.Name, err)
		}
		vals = append(vals, v)
	}
	pd.vals = vals
	return vals, pd.d.Err()
}

// putResult checks one result destination against its parameter — a
// nil discard, a slice of the element type and IDL length, or a
// pointer to the scalar type — and, with store set, writes the already
// validated result into it.
func putResult(dst any, p *idl.Param, count int, r *wireValue, store bool) error {
	var want idl.Type
	n := -1 // slice length; -1 for a scalar pointer
	switch x := dst.(type) {
	case nil:
		return nil
	case []float64:
		want, n = idl.Double, len(x)
	case []float32:
		want, n = idl.Float, len(x)
	case []int64:
		want, n = idl.Int, len(x)
	case *float64:
		want = idl.Double
		if store {
			*x = r.scalar.(float64)
		}
	case *float32:
		want = idl.Float
		if store {
			*x = r.scalar.(float32)
		}
	case *int64:
		want = idl.Int
		if store {
			*x = r.scalar.(int64)
		}
	case *string:
		want = idl.String
		if store {
			*x = r.scalar.(string)
		}
	default:
		return fmt.Errorf("unsupported result destination %T", dst)
	}
	switch {
	case want != p.Type || (n < 0) != p.IsScalar():
		return fmt.Errorf("cannot store a %v result into %T", p.Type, dst)
	case n >= 0 && n != count:
		return fmt.Errorf("cannot store %d elements into %T of len %d", count, dst, n)
	case store && n > 0:
		raw, _, _ := rawView(dst)
		reorder(raw, r.src, r.le, hostLittle, bulkElemSize(p.Type))
	}
	return nil
}

// locateArray reads one array's wire form into v: its element count
// and raw bytes, found without copying. An inline XDR array is
// big-endian bytes inside the decoder's payload (consumed by
// skipping), a bulk marker names a segment of the reassembled payload
// in the sender's order, and a digest marker resolves from the
// receiver's argument cache, which holds little-endian bytes. Every
// offset and length is checked against the bytes actually present.
//
//ninflint:owner borrow — reads through pd; the decode that acquired it releases it
func locateArray(pd *payloadDecoder, p *idl.Param, bulk *BulkInfo, v *wireValue) error {
	if !isNumeric(p.Type) {
		return fmt.Errorf("unsupported array type %v", p.Type)
	}
	d := &pd.d
	elem := bulkElemSize(p.Type)
	w := d.Uint32()
	if err := d.Err(); err != nil {
		return err
	}
	switch {
	case w&bulkArgFlag == 0:
		v.n = int(w)
		pos, size := int(d.Len()), v.n*elem
		if size > len(pd.buf)-pos {
			return fmt.Errorf("xdr: read: %w", io.ErrUnexpectedEOF)
		}
		d.Skip(size)
		v.src = pd.buf[pos : pos+size]
	case bulk == nil:
		return fmt.Errorf("bulk marker %#x in a monolithic payload", w)
	case w&bulkDigestFlag != 0:
		// Digest marker: the bytes are not in this message. Two u64
		// words carry the content digest, resolved from the receiver's
		// argument cache (level ≥ 4 with a non-nil Resolver only).
		v.n = int(w &^ (bulkArgFlag | bulkDigestFlag))
		dig := Digest{Hi: d.Uint64(), Lo: d.Uint64()}
		if err := d.Err(); err != nil {
			return err
		}
		if bulk.Resolver == nil {
			return fmt.Errorf("digest marker %v on a connection without an argument cache", dig)
		}
		src, ok := bulk.Resolver.ResolveDigest(dig)
		if !ok {
			return fmt.Errorf("%w: %v", ErrDigestMiss, dig)
		}
		if len(src) != v.n*elem {
			return fmt.Errorf("cached entry %v holds %d bytes, marker wants %d×%d", dig, len(src), v.n, elem)
		}
		v.src, v.le = src, true
	default:
		v.n = int(w &^ bulkArgFlag)
		off := int(d.Uint32())
		if err := d.Err(); err != nil {
			return err
		}
		if off < bulk.HeadLen || off > len(bulk.Base) || v.n > (len(bulk.Base)-off)/elem {
			return fmt.Errorf("bulk segment at %d (%d×%d bytes) out of range", off, v.n, elem)
		}
		v.src, v.le, v.seg = bulk.Base[off:off+v.n*elem], bulk.LE, true
	}
	return nil
}

// isNumeric reports whether arrays of t travel as raw element bytes.
func isNumeric(t idl.Type) bool {
	return t == idl.Double || t == idl.Float || t == idl.Int
}
