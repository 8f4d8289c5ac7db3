package ninf

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// Multiplexed session routing. A client that reaches a protocol
// version 2 server carries Call, CallAsync, Submit, Fetch and
// interface traffic over one persistent multiplexed connection
// (internal/mux) instead of one lockstep exchange per pooled
// connection: requests from any number of goroutines are pipelined,
// coalesced into vectored writes, and demultiplexed by sequence
// number on return. Version negotiation happens once per session
// dial; a legacy peer (or SetMultiplexing(false)) pins the client to
// the lockstep paths, which remain intact below.

// sessionState holds the client's multiplexing state; embedded in
// Client so the zero value (mux on, not yet probed) is ready to use.
type sessionState struct {
	mu     sync.Mutex
	sess   *mux.Session
	conn   net.Conn // the session's transport, checked out of the pool so closeAll severs it
	legacy bool     // peer answered Hello as a version-1 server; sticky until SetMultiplexing(true)
	off    bool     // SetMultiplexing(false)
	flags  uint32   // HelloReply capability flags of the live session
}

// SetMultiplexing toggles the multiplexed session layer. It is on by
// default: the client probes the server's protocol version on first
// use and falls back to lockstep exchanges against legacy servers
// automatically. Passing false closes any live session and pins the
// client to the lockstep paths (useful for A/B measurement and as an
// escape hatch); passing true re-enables probing, including against a
// peer previously seen as legacy (it may have been upgraded since).
func (c *Client) SetMultiplexing(on bool) {
	c.sess.mu.Lock()
	s, conn := c.sess.sess, c.sess.conn
	c.sess.sess, c.sess.conn = nil, nil
	c.sess.off = !on
	c.sess.legacy = false
	c.sess.mu.Unlock()
	retireSession(c, s, conn)
}

// retireSession closes a session detached from the client state and
// returns its transport to the pool's books (discard: the stream
// carries interleaved mux frames and must never be reused).
func retireSession(c *Client, s *mux.Session, conn net.Conn) {
	if s != nil {
		s.Close()
	}
	if conn != nil {
		c.pool.discard(conn)
	}
}

// Multiplexed reports whether the client currently holds a live
// multiplexed session. It is false until a session verb runs (the
// probe is lazy), and false forever against a legacy server.
func (c *Client) Multiplexed() bool {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	return c.sess.sess != nil && !c.sess.sess.Broken()
}

// closeSession tears down the live session, if any, as part of
// Client.Close.
func (c *Client) closeSession() {
	c.sess.mu.Lock()
	s, conn := c.sess.sess, c.sess.conn
	c.sess.sess, c.sess.conn = nil, nil
	c.sess.mu.Unlock()
	retireSession(c, s, conn)
}

// liveSession returns the current session only if one is already
// established and healthy — it never dials. Interface fetches use it:
// they ride a live session for free but must not force a session dial
// (the stage-one RPC works over the primary lockstep connection, and
// an eager probe would block a client whose pooled dials are dead).
func (c *Client) liveSession() *mux.Session {
	if c.hasCallbacks() {
		return nil
	}
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	if s := c.sess.sess; s != nil && !s.Broken() {
		return s
	}
	return nil
}

// session returns the live multiplexed session, dialing and
// negotiating one if needed. A nil session with nil error means the
// caller must use the lockstep path: multiplexing is off, the peer is
// legacy, or the client has callbacks registered (the §2.3 callback
// facility needs the quiet parked stream of a lockstep call and
// cannot share a connection carrying interleaved sequenced frames).
// ctx bounds only the dial+negotiate handshake.
func (c *Client) session(ctx context.Context) (*mux.Session, error) {
	if c.hasCallbacks() {
		return nil, nil
	}
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	if c.sess.off || c.sess.legacy {
		return nil, nil
	}
	if s := c.sess.sess; s != nil {
		if !s.Broken() {
			return s, nil
		}
		conn := c.sess.conn
		c.sess.sess, c.sess.conn = nil, nil
		//lint:ninflint locknet — the session is already Broken: Close and discard on its dead socket return immediately
		retireSession(c, s, conn)
	}
	// Checking the connection out of the pool keeps it on the active
	// books: Close's pool.closeAll severs a handshake blocked against a
	// dead server, and severs the session transport itself later — the
	// connection stays checked out for the session's whole life.
	// sess.mu serializes session (re)establishment; pool.closeAll and
	// guardConn both sever a handshake blocked under it.
	conn, err := c.pool.get()
	if err != nil {
		return nil, err
	}
	//lint:ninflint locknet — guardConn only registers a context callback; it performs no socket I/O
	stop := guardConn(ctx, conn)
	//lint:ninflint locknet — negotiation must finish before any verb uses the session; the guard (and Close) severs a black-holed handshake
	hello, err := mux.NegotiateHello(conn, c.maxPayload)
	if !stop() {
		//lint:ninflint locknet — discard only closes the socket (non-blocking) and updates the pool books
		c.pool.discard(conn)
		if err != nil {
			return nil, ctxErr(ctx, err)
		}
		return nil, ctx.Err()
	}
	if errors.Is(err, mux.ErrLegacy) {
		// The refused Hello was a complete lockstep exchange, so the
		// connection is still in frame sync — seed the pool with it.
		c.sess.legacy = true
		c.pool.put(conn)
		return nil, nil
	}
	if err != nil {
		//lint:ninflint locknet — discard only closes the socket (non-blocking) and updates the pool books
		c.pool.discard(conn)
		return nil, err
	}
	// The hello reply carries the server's incarnation epoch (0 from
	// journal-less or pre-epoch servers); noting it here is how the
	// client detects a restart at the first exchange after a re-dial,
	// before any digest reference or data handle can hit the reborn
	// (empty) cache.
	c.noteEpoch(hello.Epoch)
	//lint:ninflint locknet — New only starts the session goroutines; it performs no blocking socket I/O itself
	s := mux.New(conn, c.maxPayload, int(hello.Version))
	c.sess.sess, c.sess.conn, c.sess.flags = s, conn, hello.Flags
	return s, nil
}

// cacheOn reports whether sess negotiated feature level 4 against a
// server advertising a live argument cache, with digest references
// enabled on this client. Only then may digest or retain framing
// appear on the wire; anywhere below, the byte stream is bit-identical
// to level 3.
func (c *Client) cacheOn(sess *mux.Session) bool {
	if c.noArgCache.Load() || !sess.Cache() {
		return false
	}
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	return c.sess.sess == sess && c.sess.flags&protocol.HelloFlagArgCache != 0
}

// dropSession retires s if it is still the client's current session
// and has failed; the next session() call dials afresh.
func (c *Client) dropSession(s *mux.Session) {
	if !s.Broken() {
		return
	}
	c.sess.mu.Lock()
	var conn net.Conn
	if c.sess.sess == s {
		conn = c.sess.conn
		c.sess.sess, c.sess.conn = nil, nil
	}
	c.sess.mu.Unlock()
	retireSession(c, s, conn)
}

// muxExchange runs one sequenced exchange over the session layer.
// used=false means no session is available (legacy peer, mux off, or
// callbacks registered): req is untouched and still owned by the
// caller, which must fall back to the lockstep path. used=true means
// the exchange was attempted and req consumed; MsgError replies are
// translated to *protocol.RemoteError like every lockstep round trip,
// and transport faults (which fail the session) surface as retryable
// errors so the enclosing withRetry dials a fresh session. A non-nil
// BulkInfo means the peer streamed the reply chunked.
func (c *Client) muxExchange(ctx context.Context, t protocol.MsgType, req *protocol.Buffer) (rt protocol.MsgType, fb *protocol.Buffer, bulk *protocol.BulkInfo, used bool, err error) {
	sess, err := c.session(ctx)
	if err != nil {
		req.Release()
		return 0, nil, nil, true, err
	}
	if sess == nil {
		//lint:ninflint releasecheck — used=false hands req ownership back to the caller for the lockstep path
		return 0, nil, nil, false, nil
	}
	rt, fb, bulk, err = c.muxExchangeOn(ctx, sess, t, req)
	return rt, fb, bulk, true, err
}

// muxExchangeLive is muxExchange restricted to an already-established
// session: it never dials. Interface fetches use it so a cold client
// does not pay (or block on) a session handshake for a stage-one RPC
// the primary lockstep connection serves equally well.
func (c *Client) muxExchangeLive(ctx context.Context, t protocol.MsgType, req *protocol.Buffer) (rt protocol.MsgType, fb *protocol.Buffer, used bool, err error) {
	sess := c.liveSession()
	if sess == nil {
		//lint:ninflint releasecheck — used=false hands req ownership back to the caller for the lockstep path
		return 0, nil, false, nil
	}
	rt, fb, _, err = c.muxExchangeOn(ctx, sess, t, req)
	return rt, fb, true, err
}

// muxExchangeOn runs one sequenced exchange on sess, consuming req.
func (c *Client) muxExchangeOn(ctx context.Context, sess *mux.Session, t protocol.MsgType, req *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	rt, fb, bulk, err := sess.Roundtrip(ctx, t, req)
	return c.settleMux(sess, rt, fb, bulk, err)
}

// settleMux normalizes one session exchange's outcome: transport
// faults drop the session for re-dial, and MsgError replies become
// *protocol.RemoteError exactly as on the lockstep paths.
func (c *Client) settleMux(sess *mux.Session, rt protocol.MsgType, fb *protocol.Buffer, bulk *protocol.BulkInfo, err error) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	if err != nil {
		c.dropSession(sess)
		fb.Release() // nil on the error path by convention; Release is nil-safe
		return 0, nil, nil, err
	}
	if rt == protocol.MsgError {
		er, derr := protocol.DecodeErrorReply(fb.Payload())
		fb.Release()
		if derr != nil {
			return 0, nil, nil, derr
		}
		return 0, nil, nil, &protocol.RemoteError{Code: er.Code, Detail: er.Detail, RetryAfterMillis: er.RetryAfterMillis}
	}
	return rt, fb, bulk, nil
}

// muxSend encodes one call or submit request for sess and runs the
// exchange. When the session negotiated bulk streaming and an argument
// crosses the client's threshold the request goes out chunked, its
// bulk arrays written zero-copy from the caller's slices; otherwise it
// is a monolithic frame. Encoding happens here — after the session's
// capabilities are known — so nothing is marshalled twice and the
// lockstep fallback (used=false upstream) never pre-encodes in vain.
func (c *Client) muxSend(ctx context.Context, sess *mux.Session, t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64, rep *Report) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	cacheok := c.cacheOn(sess)
	if cacheok {
		creq.Retain = c.retainRes.Load()
		//lint:ninflint releasecheck — handled=true transfers fb to the caller; handled=false returns a nil fb
		rt, fb, bulk, handled, err := c.muxSendDigest(ctx, sess, t, info, creq, key, rep)
		if handled {
			return rt, fb, bulk, err
		}
		// Nothing digest-eligible (or the warmth query degraded): fall
		// through to the plain encoders. creq.Retain stays set — the
		// monolithic encoder still carries the retention trailer.
	}
	if sess.Bulk() {
		bm, err := encodeRequestChunks(t, info, creq, key, c.bulkThreshold())
		if err != nil {
			return 0, nil, nil, err
		}
		if bm != nil {
			rep.BytesOut = int64(bm.Total())
			rt, fb, bulk, err := sess.RoundtripBulk(ctx, bm)
			return c.settleMux(sess, rt, fb, bulk, err)
		}
	}
	req, err := encodeRequestBuf(t, info, creq, key)
	if err != nil {
		return 0, nil, nil, err
	}
	rep.BytesOut = int64(req.Len())
	return c.muxExchangeOn(ctx, sess, t, req)
}

// muxSendDigest runs one level-4 call or submit: hash the
// bulk-eligible arguments, learn which digests the server's cache
// holds (from the client's warm set, else one small MsgCallDigest
// round trip), then send warm arguments as 20-byte digest markers and
// only the cold ones as chunked bulk segments. handled=false means
// nothing was digest-eligible or the warmth query degraded; the caller
// falls back to the plain level-3 encoders. On success every digest is
// remembered as warm — the server pinned resolved entries for the call
// and retained uploaded segments. A CodeCacheMiss reply (eviction
// raced the warmth knowledge) clears the warm set; the error is
// retryable, and the retry re-queries and re-uploads.
func (c *Client) muxSendDigest(ctx context.Context, sess *mux.Session, t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64, rep *Report) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, bool, error) {
	thr := c.bulkThreshold()
	digs, err := protocol.CallRequestDigests(info, creq, thr)
	if err != nil || len(digs) == 0 {
		return 0, nil, nil, false, nil
	}
	warm := c.warmKnown(digs)
	if warm == nil {
		qt, qfb, _, qerr := sess.Roundtrip(ctx, protocol.MsgCallDigest, protocol.EncodeDigestQueryBuf(digs))
		qt, qfb, _, qerr = c.settleMux(sess, qt, qfb, nil, qerr)
		if qerr != nil {
			var re *protocol.RemoteError
			if errors.As(qerr, &re) {
				// The server answered but will not play (e.g. its cache
				// was disabled across a restart): degrade to plain level 3
				// for this call.
				return 0, nil, nil, false, nil
			}
			return 0, nil, nil, true, qerr
		}
		if qt != protocol.MsgDigestStatus {
			qfb.Release()
			return 0, nil, nil, true, fmt.Errorf("ninf: unexpected reply %v to digest query", qt)
		}
		warm, err = protocol.DecodeDigestStatus(qfb.Payload())
		qfb.Release()
		if err != nil {
			return 0, nil, nil, true, err
		}
		if len(warm) != len(digs) {
			return 0, nil, nil, true, fmt.Errorf("ninf: digest status answers %d of %d digests", len(warm), len(digs))
		}
	}
	warmSet := make(map[protocol.Digest]bool, len(digs))
	for i, d := range digs {
		warmSet[d] = warmSet[d] || warm[i]
	}
	bm, buf, err := protocol.EncodeCallRequestDigest(info, creq, t == protocol.MsgSubmit, key, thr, digs,
		func(d protocol.Digest) bool { return warmSet[d] })
	if err != nil {
		return 0, nil, nil, true, err
	}
	var rt protocol.MsgType
	//lint:ninflint releasecheck — settleMux releases fb on error paths; success transfers it to the caller
	var fb *protocol.Buffer
	var bulk *protocol.BulkInfo
	if bm != nil {
		rep.BytesOut = int64(bm.Total())
		rt, fb, bulk, err = sess.RoundtripBulk(ctx, bm)
	} else {
		rep.BytesOut = int64(buf.Len())
		rt, fb, bulk, err = sess.Roundtrip(ctx, t, buf)
	}
	rt, fb, bulk, err = c.settleMux(sess, rt, fb, bulk, err)
	if err != nil {
		var re *protocol.RemoteError
		if errors.As(err, &re) && re.Code == protocol.CodeCacheMiss {
			c.forgetWarm()
		}
		return 0, nil, nil, true, err
	}
	c.markWarm(digs)
	//lint:ninflint releasecheck — exactly one of bm/buf is non-nil and the taken Roundtrip consumed it
	return rt, fb, bulk, true, nil
}

// encodeRequestChunks encodes a call or submit request chunked; nil
// when no argument crosses the threshold.
func encodeRequestChunks(t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64, threshold int) (*protocol.BulkMsg, error) {
	if t == protocol.MsgSubmit {
		return protocol.EncodeSubmitRequestChunks(info, creq, key, threshold)
	}
	return protocol.EncodeCallRequestChunks(info, creq, threshold)
}

// encodeRequestBuf encodes a call or submit request as one monolithic
// frame payload.
func encodeRequestBuf(t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64) (*protocol.Buffer, error) {
	if t == protocol.MsgSubmit {
		return protocol.EncodeSubmitRequestBuf(info, creq, key)
	}
	return protocol.EncodeCallRequestBuf(info, creq)
}

// muxCall runs one blocking-call exchange over the session and decodes
// the reply into the caller's destinations. used=false means no
// session is available; the caller encodes for and runs the lockstep
// path itself.
func (c *Client) muxCall(ctx context.Context, info *idl.Info, vals []idl.Value, args []any) (*Report, bool, error) {
	sess, err := c.session(ctx)
	if err != nil {
		return nil, true, err
	}
	if sess == nil {
		return nil, false, nil
	}
	creq := &protocol.CallRequest{Name: info.Name, Args: vals, Deadline: ctxDeadlineNanos(ctx)}
	rep := &Report{Routine: info.Name, Submit: time.Now()}
	rt, fb, bulk, err := c.muxSend(ctx, sess, protocol.MsgCall, info, creq, 0, rep)
	if err != nil {
		return nil, true, err
	}
	r, err := finishCall(rep, info, vals, args, rt, fb, bulk)
	return r, true, err
}

// muxSubmit runs one submit exchange over the session; used=false
// means no session is available and the caller runs the lockstep path.
func (c *Client) muxSubmit(ctx context.Context, name string, info *idl.Info, args []any, vals []idl.Value, key uint64) (*Job, bool, error) {
	sess, err := c.session(ctx)
	if err != nil {
		return nil, true, err
	}
	if sess == nil {
		return nil, false, nil
	}
	creq := &protocol.CallRequest{Name: name, Args: vals, Deadline: ctxDeadlineNanos(ctx)}
	rep := &Report{Routine: name, Submit: time.Now()}
	t, p, _, err := c.muxSend(ctx, sess, protocol.MsgSubmit, info, creq, key, rep)
	if err != nil {
		return nil, true, err
	}
	defer p.Release()
	if t != protocol.MsgSubmitOK {
		return nil, true, fmt.Errorf("ninf: unexpected reply %v to submit", t)
	}
	sr, err := protocol.DecodeSubmitReply(p.Payload())
	if err != nil {
		return nil, true, err
	}
	return &Job{client: c, id: sr.JobID, info: info, args: args, vals: vals, report: rep, name: name, key: key}, true, nil
}

// muxFetch runs one fetch exchange over the session, mapping the
// not-ready remote error like the lockstep path does. Large stored
// results arrive as chunked bulk replies from a level-3 server.
func (j *Job) muxFetch(ctx context.Context) (*Report, bool, error) {
	c := j.client
	fr := protocol.FetchRequest{JobID: j.id, Wait: false}
	req := fr.EncodeBuf()
	t, p, bulk, used, err := c.muxExchange(ctx, protocol.MsgFetch, req)
	if !used {
		req.Release()
		//lint:ninflint releasecheck — used=false: no exchange ran and p is nil
		return nil, false, nil
	}
	if err != nil {
		return nil, true, classifyFetchErr(err)
	}
	rep, err := j.finishFetch(t, p, bulk)
	return rep, true, err
}

// finishCall decodes one call reply (mux or lockstep) straight into
// the caller's destinations, consuming the reply buffer; a reply that
// fails to decode leaves them untouched. A non-nil bulk means the reply
// was a reassembled chunked message: the XDR head is its prefix and
// marked arrays decode from raw segments.
func finishCall(rep *Report, info *idl.Info, vals []idl.Value, args []any, t protocol.MsgType, reply *protocol.Buffer, bulk *protocol.BulkInfo) (*Report, error) {
	defer reply.Release()
	if t != protocol.MsgCallOK {
		return nil, fmt.Errorf("ninf: unexpected reply %v to call", t)
	}
	rep.Received = time.Now()
	rep.BytesIn = int64(reply.Len())
	p := reply.Payload()
	if bulk != nil {
		p = bulk.Head()
	}
	tm, err := protocol.DecodeCallReplyInto(info, vals, p, bulk, args)
	if err != nil {
		return nil, err
	}
	rep.Enqueue = time.Unix(0, tm.Enqueue)
	rep.Dequeue = time.Unix(0, tm.Dequeue)
	rep.Complete = time.Unix(0, tm.Complete)
	return rep, nil
}

// hasCallbacks reports whether any client callback is registered.
func (c *Client) hasCallbacks() bool {
	c.cb.mu.RLock()
	defer c.cb.mu.RUnlock()
	return len(c.cb.fns) > 0
}
