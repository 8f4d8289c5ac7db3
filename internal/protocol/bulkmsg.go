package protocol

import (
	"fmt"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// Chunked call encoding. A bulk-eligible argument (a []float64,
// []float32 or []int64 whose encoded size reaches the threshold) is not
// copied through the XDR encoder: its head position carries a marker
// word (count | bulkArgFlag) plus the absolute offset of its raw
// element bytes within the logical payload, and the slice itself rides
// as a zero-copy segment span streamed by the chunk writer. Everything
// else — scalars, strings, small arrays, the deadline trailer — is
// normal XDR in the head, so a bulk head decodes with the same
// machinery as a monolithic payload.

// bulkSpanFor returns the raw native-order view of an array value that
// can ship as a segment, or nil when the parameter cannot.
func bulkSpanFor(p *idl.Param, v idl.Value) []byte {
	if b, t, ok := rawView(v); ok && !p.IsScalar() && t == p.Type {
		return b
	}
	return nil
}

// EncodeCallRequestChunks serializes a call for chunked streaming when
// at least one argument is bulk-eligible at the threshold; it returns
// (nil, nil) otherwise and the caller falls back to
// EncodeCallRequestBuf. The returned message's segment spans alias
// req.Args — the caller must not mutate those slices until the send
// completes — and its head buffer is released by BulkMsg.Release.
func EncodeCallRequestChunks(info *idl.Info, req *CallRequest, threshold int) (*BulkMsg, error) {
	return encodeCallRequestChunks(info, req, false, 0, threshold)
}

// EncodeSubmitRequestChunks is EncodeCallRequestChunks for MsgSubmit:
// the idempotency key leads the head, as in EncodeSubmitRequestBuf.
func EncodeSubmitRequestChunks(info *idl.Info, req *CallRequest, key uint64, threshold int) (*BulkMsg, error) {
	return encodeCallRequestChunks(info, req, true, key, threshold)
}

func encodeCallRequestChunks(info *idl.Info, req *CallRequest, keyed bool, key uint64, threshold int) (*BulkMsg, error) {
	if threshold <= 0 {
		return nil, nil
	}
	if len(req.Args) != len(info.Params) {
		return nil, fmt.Errorf("protocol: %s takes %d arguments, got %d", info.Name, len(info.Params), len(req.Args))
	}
	counts, err := info.DimSizes(req.Args)
	if err != nil {
		return nil, err
	}
	size := xdr.SizeString(len(req.Name))
	if keyed {
		size += 8
	}
	if req.Deadline != 0 {
		size += 12
	}
	nbulk := 0
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			continue
		}
		if s := bulkSpanFor(p, req.Args[i]); len(s) >= threshold {
			nbulk++
			size += 8 // marker + offset
		} else {
			size += argSize(p, counts[i], req.Args[i])
		}
	}
	if nbulk == 0 {
		return nil, nil
	}
	fb := AcquireBuffer(size)
	e := fb.Encoder()
	if keyed {
		e.PutUint64(key)
	}
	e.PutString(req.Name)
	spans := make([][]byte, 1, 1+nbulk) // spans[0] becomes the head
	patches := make([]int, 0, nbulk)
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			continue
		}
		if s := bulkSpanFor(p, req.Args[i]); len(s) >= threshold {
			if err := putBulkMarker(e, fb, p, counts[i], s, &spans, &patches); err != nil {
				fb.Release()
				return nil, fmt.Errorf("protocol: %s argument %q: %w", info.Name, p.Name, err)
			}
			continue
		}
		if err := encodeArg(e, p, counts[i], req.Args[i]); err != nil {
			fb.Release()
			return nil, fmt.Errorf("protocol: %s argument %q: %w", info.Name, p.Name, err)
		}
	}
	if req.Deadline != 0 {
		e.PutUint32(callDeadlineMagic)
		e.PutInt64(req.Deadline)
	}
	t := MsgCall
	if keyed {
		t = MsgSubmit
	}
	return finishBulkMsg(t, fb, e, spans, patches)
}

// EncodeCallReplyChunks serializes a MsgCallOK reply for chunked
// streaming when a result array is bulk-eligible; (nil, nil) falls the
// caller back to EncodeCallReplyBuf. Segment spans alias args, which
// must stay live and unmutated until the reply is fully written.
func EncodeCallReplyChunks(info *idl.Info, tm Timings, args []idl.Value, threshold int) (*BulkMsg, error) {
	if threshold <= 0 {
		return nil, nil
	}
	counts, err := info.DimSizes(args)
	if err != nil {
		return nil, err
	}
	size := 24 // three int64 timings
	nbulk := 0
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(true) {
			continue
		}
		if s := bulkSpanFor(p, args[i]); len(s) >= threshold {
			nbulk++
			size += 8
		} else {
			size += argSize(p, counts[i], args[i])
		}
	}
	if nbulk == 0 {
		return nil, nil
	}
	fb := AcquireBuffer(size)
	e := fb.Encoder()
	tm.encode(e)
	spans := make([][]byte, 1, 1+nbulk)
	patches := make([]int, 0, nbulk)
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(true) {
			continue
		}
		if s := bulkSpanFor(p, args[i]); len(s) >= threshold {
			if err := putBulkMarker(e, fb, p, counts[i], s, &spans, &patches); err != nil {
				fb.Release()
				return nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, p.Name, err)
			}
			continue
		}
		if err := encodeArg(e, p, counts[i], args[i]); err != nil {
			fb.Release()
			return nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, p.Name, err)
		}
	}
	return finishBulkMsg(MsgCallOK, fb, e, spans, patches)
}

// putBulkMarker writes one argument's marker word and offset
// placeholder, recording the patch position and the segment span.
func putBulkMarker(e *xdr.Encoder, fb *Buffer, p *idl.Param, count int, span []byte, spans *[][]byte, patches *[]int) error {
	elem := bulkElemSize(p.Type)
	if n := len(span) / elem; n != count {
		return fmt.Errorf("array length %d, IDL dimensions give %d", n, count)
	}
	e.PutUint32(uint32(count) | bulkArgFlag)
	*patches = append(*patches, fb.Len())
	e.PutUint32(0) // patched with the absolute segment offset below
	*spans = append(*spans, span)
	return nil
}

// finishBulkMsg patches segment offsets now that the head length is
// known and assembles the BulkMsg. It owns fb on the error path.
func finishBulkMsg(t MsgType, fb *Buffer, e *xdr.Encoder, spans [][]byte, patches []int) (*BulkMsg, error) {
	if err := e.Err(); err != nil {
		fb.Release()
		return nil, err
	}
	payload := fb.Payload()
	headLen := len(payload)
	off := headLen
	for i, pos := range patches {
		putU32(payload[pos:], uint32(off))
		off += len(spans[i+1])
	}
	spans[0] = payload
	return &BulkMsg{
		Type:    t,
		Spans:   spans,
		headLen: headLen,
		total:   off,
		le:      hostLittle,
		head:    fb,
	}, nil
}

// bulkElemSize maps an array parameter type to its raw element width.
func bulkElemSize(t idl.Type) int {
	if t == idl.Float {
		return 4
	}
	return 8
}
