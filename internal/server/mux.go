package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"ninf/internal/protocol"
)

// Multiplexed serving (protocol version 2). A lockstep connection
// reads a frame, fully services it, writes the reply, and only then
// reads the next — so one long dgefa call head-of-line-blocks every
// ping, list, and small call pipelined behind it, and N concurrent
// calls cost N connections. After a client negotiates the upgrade
// (MsgHello), the connection switches to serveMux: a read loop
// dispatches each sequenced request to the existing schedule/run
// machinery concurrently, bounded by a semaphore, and a single writer
// goroutine serializes (and coalesces) the replies.
//
// At feature level 3 (protocol.MuxVersionBulk) large requests arrive
// as chunked bulk frames — the read loop reassembles them straight off
// the buffered reader — and large replies stream back the same way,
// the writer interleaving one bounded chunk per turn between flushes of
// complete small replies, so a LINPACK-sized result no longer
// head-of-line-blocks pipelined pings behind it.
//
// Shared-writer invariant: dispatch goroutines must NEVER write to the
// connection themselves — interleaved writes would corrupt the frame
// stream for every in-flight Seq. Every reply travels through the
// replies channel to muxWriteLoop, the connection's one serialization
// point. The ninflint sharedwrite pass enforces this shape.

// DefaultMuxConcurrency bounds how many requests one multiplexed
// connection services concurrently when Config.MuxConcurrency is 0.
// The bound is per connection: it caps dispatch goroutines (and
// admitted-but-queued jobs) a single pipelining client can hold open,
// while the PE pool still governs actual execution parallelism.
const DefaultMuxConcurrency = 64

// muxReply is one sequenced reply awaiting the serialized writer.
// Exactly one of fb (complete frame) or bulk (chunk-streamed reply) is
// used; bulk wins when set.
// sent, when non-nil, runs after the reply is confirmed written — the
// hook fetch uses to keep its job until the reply is really on the
// wire (a reply lost with the session must leave the job fetchable),
// and a chunked call reply uses to return its pooled arrays. It never
// runs for a reply lost with the connection.
type muxReply struct {
	seq  uint32
	t    protocol.MsgType
	fb   *protocol.Buffer
	bulk *protocol.BulkMsg
	sent func()
}

// muxUpgrade is the dispatch error that switches ServeConn from the
// lockstep loop to serveMux after a successful Hello exchange,
// carrying the negotiated protocol feature level.
type muxUpgrade struct{ version int }

func (u *muxUpgrade) Error() string { return "server: upgrade to mux framing" }

// hello answers a MsgHello. With multiplexing enabled it accepts the
// highest common version and signals the upgrade; a server configured
// lockstep-only answers like a pre-mux server (MsgError), which the
// client takes as "legacy peer, stay lockstep".
func (s *Server) hello(conn net.Conn, payload []byte) error {
	req, err := protocol.DecodeHelloRequest(payload)
	if err != nil {
		return protocol.WriteFrame(conn, protocol.MsgError, protocol.EncodeErrorReply(protocol.CodeBadArguments, err.Error()))
	}
	if s.cfg.DisableMux || req.MaxVersion < protocol.MuxVersion {
		return protocol.WriteFrame(conn, protocol.MsgError, protocol.EncodeErrorReply(protocol.CodeInternal,
			fmt.Sprintf("unexpected frame %v", protocol.MsgHello)))
	}
	version := req.MaxVersion
	if version > protocol.MuxVersionCache {
		version = protocol.MuxVersionCache
	}
	rep := protocol.HelloReply{Version: version, Epoch: s.epoch.Load()}
	if version >= protocol.MuxVersionCache && s.cache != nil {
		// Digest references are only legal once the server says its
		// cache is live; without the flag a level-4 connection is
		// bit-identical to level 3.
		rep.Flags |= protocol.HelloFlagArgCache
	}
	if err := protocol.WriteFrame(conn, protocol.MsgHelloOK, rep.Encode()); err != nil {
		return err
	}
	return &muxUpgrade{version: int(version)}
}

// muxConcurrency resolves the per-connection dispatch bound.
func (s *Server) muxConcurrency() int {
	if s.cfg.MuxConcurrency > 0 {
		return s.cfg.MuxConcurrency
	}
	return DefaultMuxConcurrency
}

// bulkThreshold resolves the reply-chunking threshold; 0 disables.
func (s *Server) bulkThreshold() int {
	switch {
	case s.cfg.BulkThreshold < 0:
		return 0
	case s.cfg.BulkThreshold == 0:
		return protocol.DefaultBulkThreshold
	default:
		return s.cfg.BulkThreshold
	}
}

// serveMux services one upgraded connection until EOF or error. The
// read loop acquires a semaphore slot per request — backpressure on a
// client pipelining more than MuxConcurrency calls — and hands the
// frame to a dispatch goroutine; replies funnel through muxWriteLoop.
// Chunked bulk requests reassemble inline in the read loop (chunk data
// is read straight into the per-sequence buffer) and dispatch once
// complete, exactly like a monolithic frame plus segment metadata.
//
//ninflint:hotpath
func (s *Server) serveMux(conn net.Conn, client string, version int) {
	bulkOK := version >= protocol.MuxVersionBulk
	cacheOK := version >= protocol.MuxVersionCache && s.cache != nil
	replies := make(chan muxReply, s.muxConcurrency())
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	sem := make(chan struct{}, s.muxConcurrency())
	outstanding := func() int { return len(sem) }
	go func() {
		defer writerWG.Done()
		s.muxWriteLoop(conn, replies, outstanding)
	}()

	var wg sync.WaitGroup
	dispatch := func(typ protocol.MsgType, seq uint32, fb *protocol.Buffer, bulk *protocol.BulkInfo) {
		sem <- struct{}{}
		// Every accepted frame owes the writer one reply; the pending
		// count pairs with muxWriteLoop's replyDone so Drain can wait
		// for the wire to flush.
		s.replyPending()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t, rb, bm, sent := s.replyFor(nil, client, typ, fb, bulk, bulkOK, cacheOK)
			replies <- muxReply{seq: seq, t: t, fb: rb, bulk: bm, sent: sent}
		}()
	}

	// Pipelined small requests arrive many to a segment; the buffered
	// reader amortizes their header/payload reads into one syscall.
	br := bufio.NewReaderSize(conn, 64<<10)
	// The reassembler caps concurrently-open bulk requests at the
	// dispatch bound; Close releases anything half-assembled when the
	// connection dies mid-stream (the chaos tests' leak path).
	ra := protocol.NewReassembler(s.cfg.MaxPayload, s.muxConcurrency())
	defer ra.Close()
read:
	for {
		typ, seq, n, err := protocol.ReadMuxHeader(br, s.cfg.MaxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("ninf server: mux read: %v", err)
			}
			break
		}
		switch typ {
		case protocol.MsgBulkBegin:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				s.logf("ninf server: mux read: %v", err)
				break read
			}
			berr := ra.Begin(seq, fb.Payload(), false)
			fb.Release()
			if berr != nil {
				// Duplicate seq, oversize, or reassembly flood: the
				// stream is unsound, tear the connection down.
				s.logf("ninf server: mux read: %v", berr)
				break read
			}
		case protocol.MsgBulkChunk:
			bd, err := ra.ReadChunk(br, seq, n)
			if err != nil {
				s.logf("ninf server: mux read: %v", err)
				break read
			}
			if bd != nil {
				dispatch(bd.Type, seq, bd.FB, &bd.Bulk)
			}
		case protocol.MsgBulkAbort:
			// The client gave up mid-stream (context ended); drop the
			// partial reassembly and move on. No reply is owed.
			if n > 0 {
				fb, err := protocol.ReadMuxPayload(br, n)
				if err != nil {
					s.logf("ninf server: mux read: %v", err)
					break read
				}
				fb.Release()
			}
			ra.Abort(seq)
		default:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				s.logf("ninf server: mux read: %v", err)
				break read
			}
			dispatch(typ, seq, fb, nil)
		}
	}
	wg.Wait()
	close(replies)
	writerWG.Wait()
}

// bulkFlight is one chunk-streamed reply in progress in the writer.
type bulkFlight struct {
	r     muxReply
	cur   protocol.BulkCursor
	begun bool
}

// muxWriteLoop is the connection's single serialized writer: it drains
// the replies channel, coalescing whatever is queued into one vectored
// write, and streams bulk replies a chunk at a time between those
// flushes — round-robin across concurrent bulk replies, so several
// large results share the wire and small replies never wait behind a
// whole payload. Active bulk replies are finished (streamed to
// completion) even after the replies channel closes: a graceful drain
// must flush partially-sent results, not truncate them. After a write
// error it keeps draining — releasing buffers so dispatch goroutines
// can finish — until the channel closes and the actives are settled.
//
// outstanding reports how many dispatch goroutines are still running.
// While more work is in flight than is sitting in the batch, the
// writer yields the processor (bounded) before flushing: near-done
// handlers get to finish and their replies join this vectored write
// instead of each costing a syscall — on a loaded single-core box the
// difference between one write per reply and one write per burst. With
// bulk chunks pending the writer never yields; the chunk write itself
// is the pause that lets replies accumulate.
//
//ninflint:hotpath
func (s *Server) muxWriteLoop(conn net.Conn, replies <-chan muxReply, outstanding func() int) {
	batch := make([]muxReply, 0, maxMuxWriteBatch)
	bufs := make([]*protocol.Buffer, 0, maxMuxWriteBatch)
	var active []*bulkFlight
	rr, burst := 0, 0
	broken := false
	open := true
	for open || len(active) > 0 {
		batch = batch[:0]
		if len(active) == 0 {
			r, ok := <-replies
			if !ok {
				open = false
				continue
			}
			takeReply(r, &batch, &active)
		}
		for yields := 0; open; {
		gather:
			for len(batch) < maxMuxWriteBatch {
				select {
				case more, ok := <-replies:
					if !ok {
						open = false
						break gather
					}
					takeReply(more, &batch, &active)
				default:
					break gather
				}
			}
			if len(active) > 0 || yields >= 2 || len(batch) >= maxMuxWriteBatch || outstanding() <= len(batch) {
				break
			}
			yields++
			runtime.Gosched()
		}
		if len(batch) > 0 {
			bufs = bufs[:0]
			for i := range batch {
				protocol.StampMux(batch[i].fb, batch[i].t, batch[i].seq)
				bufs = append(bufs, batch[i].fb)
			}
			if !broken {
				// muxWriteLoop is the connection's serialization point.
				if err := protocol.WriteStampedFrames(conn, bufs); err != nil {
					broken = true
					s.logf("ninf server: mux write: %v", err)
					conn.Close() // wake the read loop so the conn tears down
				}
			}
			for i := range batch {
				if !broken && batch[i].sent != nil {
					batch[i].sent()
				}
				bufs[i].Release()
				// Written or lost with the connection, this reply is no
				// longer pending; on a broken conn the client's retry path
				// owns recovery and Drain must not wait for it.
				s.replyDone()
			}
		}
		if len(active) == 0 {
			continue
		}
		rr %= len(active)
		bf := active[rr]
		done := broken
		if !broken {
			var err error
			done, err = s.bulkReplyStep(conn, bf)
			if err != nil {
				broken = true
				s.logf("ninf server: mux write: %v", err)
				conn.Close()
			}
		}
		if broken || done {
			// Fully streamed, or lost with the connection: either way
			// this reply is settled and its sent hook may run (only on a
			// complete write — a job must stay fetchable otherwise).
			if !broken && bf.r.sent != nil {
				bf.r.sent()
			}
			bf.r.bulk.Release()
			s.replyDone()
			active[rr] = active[len(active)-1]
			active = active[:len(active)-1]
			burst = 0
		} else if burst++; burst >= bulkBurstChunks {
			// Take a few consecutive chunks from one reply before
			// rotating: control replies still preempt between every
			// chunk, so this only trades inter-bulk fairness for the
			// streaming locality concurrent transfers need.
			rr++
			burst = 0
		}
	}
}

// takeReply routes one reply to the control batch or the bulk actives.
func takeReply(r muxReply, batch *[]muxReply, active *[]*bulkFlight) {
	if r.bulk != nil {
		*active = append(*active, &bulkFlight{r: r, cur: r.bulk.Cursor()})
		return
	}
	*batch = append(*batch, r)
}

// bulkReplyStep writes one frame of a streaming reply: its begin
// header first, then one bounded chunk per turn. It reports whether
// the reply is fully on the wire.
func (s *Server) bulkReplyStep(conn net.Conn, bf *bulkFlight) (bool, error) {
	if !bf.begun {
		fb := bf.r.bulk.EncodeBegin()
		//lint:ninflint sharedwrite,featgate — muxWriteLoop IS the serialization point; replies enter bulkq only via bulkOK-gated replyFor
		err := protocol.WriteMuxFrameBuf(conn, protocol.MsgBulkBegin, bf.r.seq, fb)
		fb.Release()
		if err != nil {
			return false, err
		}
		bf.begun = true
		return false, nil
	}
	// muxWriteLoop is the connection's serialization point.
	return bf.cur.WriteChunk(conn, bf.r.seq, protocol.DefaultBulkChunk)
}

// maxMuxWriteBatch bounds one coalesced reply write; see mux.maxWriteBatch.
const maxMuxWriteBatch = 64

// bulkBurstChunks mirrors the client writer's burst factor (see
// internal/mux): consecutive chunks taken from one streaming reply
// before the writer rotates to the next.
const bulkBurstChunks = 4

// errReply builds a MsgError reply buffer (nil sent hook).
func errReply(code uint32, detail string) (protocol.MsgType, *protocol.Buffer, *protocol.BulkMsg, func()) {
	return errReplyHint(code, detail, 0)
}

// errReplyHint is errReply carrying a retry-after hint on overload
// rejections.
func errReplyHint(code uint32, detail string, retryAfterMillis uint32) (protocol.MsgType, *protocol.Buffer, *protocol.BulkMsg, func()) {
	return protocol.MsgError, protocol.BufferFor(protocol.EncodeErrorReplyHint(code, detail, retryAfterMillis)), nil, nil
}

// replyFor services one request and returns its reply — a complete
// frame buffer, or a BulkMsg for the
// writer to stream chunked. Both framings use it: serveMux for
// sequenced requests, and the lockstep dispatch with bulkOK and
// cacheOK false. It owns fb and releases it once the payload is
// decoded (bulk requests included: admit copies every argument out of
// the reassembly buffer). The sent hook, when non-nil, must run only
// after the reply is confirmed written: fetch marks its job delivered
// there, and a chunked Call reply returns the result arrays its spans
// alias to the pool. bulk carries the segment metadata of a
// reassembled chunked request; bulkOK says the peer accepts chunked
// replies. On the mux path any number of these run concurrently on
// one connection, so nothing here may touch the connection — replies
// go back through the serialized writer.
//
// ctx is a blocking call's execution context: the lockstep dispatch
// passes one carrying the §2.3 callback invoker. The mux path passes
// nil — its connection carries interleaved sequenced frames, not the
// quiet parked stream callbacks need — so executables that call back
// get ErrNoCallback (clients with registered callbacks stay lockstep).
func (s *Server) replyFor(ctx context.Context, client string, typ protocol.MsgType, fb *protocol.Buffer, bulk *protocol.BulkInfo, bulkOK, cacheOK bool) (protocol.MsgType, *protocol.Buffer, *protocol.BulkMsg, func()) {
	payload := fb.Payload()
	if bulk != nil {
		if typ != protocol.MsgCall && typ != protocol.MsgSubmit {
			fb.Release()
			return errReply(protocol.CodeBadArguments, fmt.Sprintf("unexpected bulk frame %v", typ))
		}
		payload = bulk.Head()
	}
	switch typ {
	case protocol.MsgPing:
		fb.Release()
		return protocol.MsgPong, protocol.AcquireBuffer(0), nil, nil

	case protocol.MsgList:
		fb.Release()
		reply := protocol.ListReply{Names: s.registry.Names()}
		return protocol.MsgListReply, protocol.BufferFor(reply.Encode()), nil, nil

	case protocol.MsgStats:
		fb.Release()
		st := s.Stats()
		return protocol.MsgStatsOK, protocol.BufferFor(st.Encode()), nil, nil

	case protocol.MsgTrace:
		fb.Release()
		return protocol.MsgTraceOK, protocol.BufferFor(encodeTraces(s.Trace())), nil, nil

	case protocol.MsgInterface:
		req, err := protocol.DecodeInterfaceRequest(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		ex := s.registry.Lookup(req.Name)
		if ex == nil {
			return errReply(protocol.CodeUnknownRoutine, fmt.Sprintf("no routine %q", req.Name))
		}
		p, err := protocol.EncodeInterfaceReply(ex.Info)
		if err != nil {
			return errReply(protocol.CodeInternal, err.Error())
		}
		return protocol.MsgInterfaceOK, protocol.BufferFor(p), nil, nil

	case protocol.MsgCall:
		bulk = s.attachCache(bulk, payload, cacheOK)
		t, code, hint, err := s.admit(payload, bulk, false, ctx, 0, client)
		fb.Release() // arguments are decoded and copied by admit
		if err != nil {
			return errReplyHint(code, err.Error(), hint)
		}
		<-t.done
		if t.err != nil {
			return errReplyHint(t.failCode(), t.err.Error(), t.retryAfter)
		}
		if bulkOK {
			// Large results stream back chunked; the BulkMsg's segment
			// spans alias the task's arrays, which stay live (and
			// unmutated — the task is complete) until the writer is done
			// with them and the sent hook returns them to the pool. A
			// broken connection never runs the hook and leaves them to
			// the garbage collector.
			bm, err := protocol.EncodeCallReplyChunks(t.ex.Info, t.timings, t.call.Args, s.bulkThreshold())
			if err != nil {
				t.releaseArgs()
				return errReply(protocol.CodeInternal, err.Error())
			}
			if bm != nil {
				return protocol.MsgCallOK, nil, bm, t.releaseArgs
			}
		}
		reply, err := protocol.EncodeCallReplyBuf(t.ex.Info, t.timings, t.call.Args)
		t.releaseArgs() // the reply frame holds its own copy
		if err != nil {
			return errReply(protocol.CodeInternal, err.Error())
		}
		return protocol.MsgCallOK, reply, nil, nil

	case protocol.MsgSubmit:
		key, rest, err := protocol.DecodeSubmitKey(payload)
		if err != nil {
			fb.Release()
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		bulk = s.attachCache(bulk, rest, cacheOK)
		t, code, hint, err := s.admit(rest, bulk, true, nil, key, client)
		fb.Release()
		if err != nil {
			return errReplyHint(code, err.Error(), hint)
		}
		reply := protocol.SubmitReply{JobID: t.job.ID}
		return protocol.MsgSubmitOK, protocol.BufferFor(reply.Encode()), nil, nil

	case protocol.MsgFetch:
		req, err := protocol.DecodeFetchRequest(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		return s.fetchReply(req, bulkOK)

	case protocol.MsgCallDigest:
		digs, err := protocol.DecodeDigestQuery(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		if !cacheOK {
			return errReply(protocol.CodeInternal, "argument cache disabled")
		}
		warm := make([]bool, len(digs))
		for i, d := range digs {
			warm[i] = s.cache.contains(d)
		}
		return protocol.MsgDigestStatus, protocol.EncodeDigestStatusBuf(warm), nil, nil

	case protocol.MsgDataHandle:
		d, err := protocol.DecodeDataHandleRequest(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		if !cacheOK {
			return errReply(protocol.CodeInternal, "argument cache disabled")
		}
		b, ok := s.cache.get(d)
		if !ok {
			return errReply(protocol.CodeCacheMiss, fmt.Sprintf("no cached value %v", d))
		}
		return protocol.MsgDataHandleOK, protocol.EncodeDataHandleReplyBuf(d, b), nil, nil

	default:
		fb.Release()
		return errReply(protocol.CodeInternal, fmt.Sprintf("unexpected frame %v", typ))
	}
}

// attachCache gives a level-4 call's decode a per-call cache view: the
// resolver that answers digest markers (pinning what it resolves) and
// retains uploaded segments. A monolithic frame gets a synthesized
// BulkInfo — digest markers carry no offsets, so a head-only Base is
// sound, and inline arrays take the non-marker decode path untouched.
// Below level 4 (or with the cache off) bulk passes through unchanged
// and decode rejects any digest marker.
func (s *Server) attachCache(bulk *protocol.BulkInfo, head []byte, cacheOK bool) *protocol.BulkInfo {
	if !cacheOK {
		return bulk
	}
	if bulk == nil {
		bulk = &protocol.BulkInfo{Base: head, HeadLen: len(head)}
	}
	bulk.Resolver = &callPins{c: s.cache}
	return bulk
}

// fetchReply answers a MsgFetch: unknown job, not ready, the job's
// error, or its retained reply. A finished job's answer — result or
// error alike — is a delivery, but the job must not be marked
// delivered until the reply is on the wire: a reply lost with the
// connection must leave the job fully fetchable for the client's
// retried fetch. Delivery therefore rides the reply's sent hook, which
// both framings run only after a successful write; the job then
// lingers re-fetchable for DeliveredTTL (see markDeliveredLocked) to
// cover a written-but-lost reply. Large stored results stream back
// chunked (the BulkMsg aliases the job's pre-encoded reply, which the
// linger keeps live until well past the write). Wait:true blocks until
// the job finishes; the client always sends Wait:false and polls.
func (s *Server) fetchReply(req protocol.FetchRequest, bulkOK bool) (protocol.MsgType, *protocol.Buffer, *protocol.BulkMsg, func()) {
	s.mu.Lock()
	t, ok := s.jobs[req.JobID]
	s.mu.Unlock()
	if !ok {
		return errReply(protocol.CodeUnknownJob, fmt.Sprintf("no job %d", req.JobID))
	}
	if req.Wait {
		<-t.done
	}
	select {
	case <-t.done:
	default:
		return errReply(protocol.CodeNotReady, fmt.Sprintf("job %d still running", req.JobID))
	}
	sent := func() {
		s.mu.Lock()
		s.markDeliveredLocked(req.JobID, t)
		s.mu.Unlock()
	}
	if t.err != nil {
		rt, fb, _, _ := errReplyHint(t.failCode(), t.err.Error(), t.retryAfter)
		return rt, fb, nil, sent
	}
	if thr := s.bulkThreshold(); bulkOK && thr > 0 && len(t.reply) >= thr {
		return protocol.MsgFetchOK, nil, protocol.RawBulkMsg(protocol.MsgFetchOK, t.reply), sent
	}
	reply := protocol.BufferFor(t.reply)
	return protocol.MsgFetchOK, reply, nil, sent
}
