package ninf

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// The client transport. A Client holds exactly one connection, which
// its first exchange dials. Its first call-plane exchange (call,
// submit, fetch, data handle) is preceded by a MsgHello offer unless
// callbacks are registered: a MsgHelloOK wraps the connection in a
// multiplexed session (internal/mux) that pipelines every verb from
// any number of goroutines, while any other complete reply leaves it a
// lockstep connection that runs one exchange at a time — the Ninf_call
// contract of a version-1 peer. A call or submit settles the
// connection (and so makes the offer) before it resolves its
// interface: the Hello reply reports the server's incarnation, and a
// restart voids the interfaces cached from the old one. Interface
// fetches and control verbs on their own do not force the offer: they
// run lockstep on a connection not yet upgraded, as on a version-1
// connection. Either way the two-stage RPC costs no extra round trip.
// Every verb goes through exchangeOn, whichever the mode. A transport
// fault retires the connection, and the next exchange dials afresh.

// errRetired fails an exchange whose connection was retired under it
// (Close, or a callback registration changing the protocol it needs).
// It wraps net.ErrClosed, so the retry loop classifies it as a
// transport fault — or as ErrClientClosed when the client is closed.
var errRetired = fmt.Errorf("ninf: connection retired: %w", net.ErrClosed)

// errEpochMoved fails a request whose interface was resolved against a
// server incarnation older than the one its connection now reaches: the
// server restarted in between, and its registry may define the routine
// differently. request resolves and sends once more; a second restart
// in the same attempt leaves the fault to the retry loop, as a retired
// connection's would.
var errEpochMoved = fmt.Errorf("ninf: server restarted under the request: %w", errRetired)

// A link is one exchange's hold on the client's connection: a live
// multiplexed session, shared with concurrent exchanges, or the
// lockstep connection held exclusively (xlock taken) until the
// exchange ends or release gives it back.
type link struct {
	conn  net.Conn
	sess  *mux.Session
	flags uint32 // HelloReply capability flags of sess
}

// Multiplexed reports whether the client currently holds a live
// multiplexed session. It is false until the first call-plane exchange
// negotiates one, and false against a DisableMux or pre-mux server or
// while callbacks are registered.
func (c *Client) Multiplexed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess != nil && !c.sess.Broken()
}

// isClosed reports whether Close ran.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// link returns the client's connection for one exchange, dialing it
// first if needed and, when upgrade is set, offering the session
// upgrade to a connection not yet negotiated. A live session is
// returned without serialization; anything else — dialing,
// negotiating, and every lockstep exchange — runs under xlock, whose
// wait ctx bounds.
func (c *Client) link(ctx context.Context, upgrade bool) (link, error) {
	c.mu.Lock()
	l, closed := c.liveLocked()
	c.mu.Unlock()
	if closed {
		return link{}, errClientClosed
	}
	if l.sess != nil {
		return l, nil
	}
	select {
	case c.xlock <- struct{}{}:
	case <-ctx.Done():
		return link{}, ctx.Err()
	}
	l, err := c.settle(ctx, upgrade)
	if err != nil || l.sess != nil {
		<-c.xlock
	}
	return l, err
}

// liveLocked returns the live session's link, if any; callers hold mu.
func (c *Client) liveLocked() (link, bool) {
	if c.sess != nil && !c.sess.Broken() {
		return link{conn: c.conn, sess: c.sess, flags: c.flags}, c.closed
	}
	return link{}, c.closed
}

// settle brings the connection to a usable state under xlock: it
// re-dials a retired connection and, for an upgrade, negotiates one
// not yet negotiated. The negotiation is bounded by ctx; Close severs
// it too, since the connection is the client's from the moment it is
// dialed.
func (c *Client) settle(ctx context.Context, upgrade bool) (link, error) {
	c.mu.Lock()
	l, closed := c.liveLocked()
	broken := c.sess != nil && l.sess == nil
	conn, probed := c.conn, c.probed
	c.mu.Unlock()
	switch {
	case closed:
		return link{}, errClientClosed
	case l.sess != nil:
		return l, nil // another exchange negotiated while this one waited
	case broken:
		c.drop(conn)
		conn = nil
	}
	if conn == nil {
		var err error
		if conn, err = c.dial(); err != nil {
			return link{}, err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return link{}, errClientClosed
		}
		c.conn, c.probed, probed = conn, false, false
		c.mu.Unlock()
	}
	if probed || !upgrade {
		return link{conn: conn}, nil
	}
	if c.hasCallbacks() {
		// The §2.3 callback facility needs the quiet parked stream of a
		// lockstep call, so a callback-holding client never upgrades.
		c.mu.Lock()
		if c.conn == conn {
			c.probed = true
		}
		c.mu.Unlock()
		return link{conn: conn}, nil
	}
	stop := guardConn(ctx, conn)
	hello, err := mux.Negotiate(conn, c.maxPayload)
	if !stop() {
		c.drop(conn)
		if err == nil {
			err = errRetired
		}
		return link{}, ctxErr(ctx, err)
	}
	legacy := errors.Is(err, mux.ErrLegacy)
	if err != nil && !legacy {
		c.drop(conn)
		return link{}, err
	}
	var s *mux.Session
	if !legacy {
		// The hello reply carries the server's incarnation epoch (0 from
		// journal-less servers); noting it here is how the client detects
		// a restart at the first exchange after a re-dial, before any
		// digest reference or data handle can hit the reborn cache.
		c.noteEpoch(hello.Epoch)
		s = mux.New(conn, c.maxPayload, int(hello.Version))
	}
	c.mu.Lock()
	if c.conn != conn {
		// Retired mid-handshake (Close or a callback registration).
		c.mu.Unlock()
		if s != nil {
			s.Close()
		}
		return link{}, errRetired
	}
	c.sess, c.flags, c.probed = s, hello.Flags, true
	c.mu.Unlock()
	return link{conn: conn, sess: s, flags: hello.Flags}, nil
}

// release gives up l's hold on the connection without an exchange.
func (c *Client) release(l link) {
	if l.sess == nil {
		<-c.xlock
	}
}

// drop retires conn if it is still the client's connection — nil
// retires whatever the client holds — and closes it. The next exchange
// dials afresh. It never waits on xlock, so Close cannot hang behind
// an exchange blocked on a dead server: closing the socket is what
// unblocks that exchange.
func (c *Client) drop(conn net.Conn) {
	c.mu.Lock()
	var s *mux.Session
	if conn == nil || c.conn == conn {
		conn, s = c.conn, c.sess
		c.conn, c.sess, c.probed = nil, nil, false
	}
	c.mu.Unlock()
	if s != nil {
		s.Close()
	}
	if conn != nil {
		conn.Close()
	}
}

// exchange runs one request/reply exchange over the client's
// connection, consuming req; see exchangeOn. Only a fetch — the one
// call-plane verb among its callers — offers the session upgrade.
func (c *Client) exchange(ctx context.Context, t protocol.MsgType, req *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	l, err := c.link(ctx, t == protocol.MsgFetch)
	if err != nil {
		req.Release()
		return 0, nil, nil, err
	}
	return c.exchangeOn(ctx, l, t, req)
}

// exchangeOn runs one exchange on l, consuming req and ending l's hold
// on the connection. MsgError replies become *protocol.RemoteError, and
// a transport fault retires the connection so the enclosing withRetry
// re-dials. A lockstep exchange is bounded by ctx through guardConn
// and answers any callback frames the server interleaves; a mux
// exchange abandons only its own sequence when ctx ends. A non-nil
// BulkInfo means the peer streamed the reply chunked.
func (c *Client) exchangeOn(ctx context.Context, l link, t protocol.MsgType, req *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	if l.sess != nil {
		rt, fb, bulk, err := l.sess.Roundtrip(ctx, t, req)
		return c.settleMux(l, rt, fb, bulk, err)
	}
	defer c.release(l)
	stop := guardConn(ctx, l.conn)
	rt, fb, err := c.lockstepRoundTrip(l.conn, t, req)
	if !stop() {
		// ctx ended mid-exchange: the guard's Close races the exchange,
		// so the connection goes even if the exchange completed.
		c.drop(l.conn)
		if err != nil {
			err = ctxErr(ctx, err)
		}
	} else if err != nil {
		c.drop(l.conn)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	rt, fb, err = remoteErr(rt, fb)
	return rt, fb, nil, err
}

// settleMux normalizes one session exchange's outcome: a fault that
// broke the session retires the connection for re-dial, and MsgError
// replies become *protocol.RemoteError as on the lockstep path.
func (c *Client) settleMux(l link, rt protocol.MsgType, fb *protocol.Buffer, bulk *protocol.BulkInfo, err error) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	if err != nil {
		if l.sess.Broken() {
			c.drop(l.conn)
		}
		fb.Release() // nil on the error path by convention; Release is nil-safe
		return 0, nil, nil, err
	}
	rt, fb, err = remoteErr(rt, fb)
	if err != nil {
		bulk = nil
	}
	return rt, fb, bulk, err
}

// remoteErr translates a MsgError reply into *protocol.RemoteError,
// consuming its buffer; other replies pass through.
func remoteErr(rt protocol.MsgType, fb *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, error) {
	if rt != protocol.MsgError {
		return rt, fb, nil
	}
	er, err := protocol.DecodeErrorReply(fb.Payload())
	fb.Release()
	if err != nil {
		return 0, nil, err
	}
	return 0, nil, &protocol.RemoteError{Code: er.Code, Detail: er.Detail, RetryAfterMillis: er.RetryAfterMillis}
}

// expect runs one exchange and checks the reply type, returning the
// reply buffer for the caller to decode and Release.
func (c *Client) expect(ctx context.Context, t protocol.MsgType, req *protocol.Buffer, want protocol.MsgType, verb string) (*protocol.Buffer, error) {
	rt, fb, _, err := c.exchange(ctx, t, req)
	if err != nil {
		return nil, err
	}
	if rt != want {
		fb.Release()
		return nil, fmt.Errorf("ninf: unexpected reply %v to %s", rt, verb)
	}
	return fb, nil
}

// cacheOn reports whether l is a feature level 4 session against a
// server advertising a live argument cache, with digest references
// enabled on this client. Only then may digest or retain framing
// appear on the wire; anywhere below, the byte stream is bit-identical
// to level 3.
func (c *Client) cacheOn(l link) bool {
	return l.sess != nil && !c.noArgCache.Load() && l.sess.Cache() && l.flags&protocol.HelloFlagArgCache != 0
}

// send encodes one call or submit request for the client's connection
// and runs the exchange. On a session that negotiated bulk streaming,
// an argument crossing the client's threshold goes out chunked, its
// bulk arrays written zero-copy from the caller's slices; a level-4
// session may send digest references instead, asking the server to
// retain large results when retain is set. Everything else is one
// monolithic frame. Encoding happens here — once the connection's
// capabilities are known — so nothing is marshalled twice. rep's
// Submit and BytesOut are stamped here too. info must belong to server
// incarnation epoch; if the connection now reaches a newer one, nothing
// is sent and the error is errEpochMoved.
func (c *Client) send(ctx context.Context, t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64, rep *Report, epoch uint64, retain bool) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	l, err := c.link(ctx, true)
	if err != nil {
		return 0, nil, nil, err
	}
	if c.srvEpoch.Load() != epoch {
		c.release(l)
		return 0, nil, nil, errEpochMoved
	}
	rep.Submit = time.Now() // the connection is ready: the call is issued
	cacheOK := c.cacheOn(l)
	if cacheOK {
		creq.Retain = retain
		//lint:ninflint releasecheck — handled=true transfers fb to the caller; handled=false returns a nil fb
		rt, fb, bulk, handled, err := c.sendDigest(ctx, l, t, info, creq, key, rep)
		if handled {
			return rt, fb, bulk, err
		}
		// Nothing digest-eligible (or the warmth query degraded): fall
		// through to the plain encoders. creq.Retain stays set — the
		// monolithic encoder still carries the retention trailer.
	}
	if l.sess != nil && l.sess.Bulk() {
		bm, err := encodeRequestChunks(t, info, creq, key, c.bulkThreshold())
		if err != nil {
			return 0, nil, nil, err
		}
		if bm != nil {
			rep.BytesOut = int64(bm.Total())
			rt, fb, bulk, err := l.sess.RoundtripBulk(ctx, bm)
			return c.settleMux(l, rt, fb, bulk, err)
		}
	}
	req, err := encodeRequestBuf(t, info, creq, key)
	if err != nil {
		c.release(l)
		return 0, nil, nil, err
	}
	rep.BytesOut = int64(req.Len())
	return c.exchangeOn(ctx, l, t, req)
}

// sendDigest runs one level-4 call or submit: hash the bulk-eligible
// arguments, learn which digests the server's cache holds (from the
// client's warm set, else one small MsgCallDigest round trip), then
// send warm arguments as 20-byte digest markers and only the cold ones
// as chunked bulk segments. handled=false means nothing was
// digest-eligible or the warmth query degraded; the caller falls back
// to the plain level-3 encoders. On success every digest is remembered
// as warm — the server pinned resolved entries for the call and
// retained uploaded segments. A CodeCacheMiss reply (eviction raced
// the warmth knowledge) clears the warm set; the error is retryable,
// and the retry re-queries and re-uploads.
func (c *Client) sendDigest(ctx context.Context, l link, t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64, rep *Report) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, bool, error) {
	thr := c.bulkThreshold()
	digs, err := protocol.CallRequestDigests(info, creq, thr)
	if err != nil || len(digs) == 0 {
		return 0, nil, nil, false, nil
	}
	sess := l.sess
	warm := c.warmKnown(digs)
	if warm == nil {
		qt, qfb, _, qerr := sess.Roundtrip(ctx, protocol.MsgCallDigest, protocol.EncodeDigestQueryBuf(digs))
		qt, qfb, _, qerr = c.settleMux(l, qt, qfb, nil, qerr)
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
	rt, fb, bulk, err = c.settleMux(l, rt, fb, bulk, err)
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

// finishCall decodes one call reply straight into the caller's
// destinations, consuming the reply buffer; a reply that fails to
// decode leaves them untouched. A non-nil bulk means the reply was a
// reassembled chunked message: the XDR head is its prefix and marked
// arrays decode from raw segments.
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
