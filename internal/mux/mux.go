// Package mux implements the client side of the multiplexed Ninf RPC
// session (protocol version 2): many in-flight calls share one
// persistent connection to a server instead of one lockstep exchange
// per connection.
//
// A Session runs two goroutines. The writer drains a queue of stamped
// request frames and coalesces whatever is queued into a single
// vectored write, so a burst of small concurrent calls costs one
// syscall, not one each — the per-call overhead amortization the
// paper's §4 multi-client measurements show dominating LAN/WAN
// throughput. The reader demultiplexes reply frames by their sequence
// number to the waiting callers, so a long-running call no longer
// head-of-line-blocks pings and small calls pipelined behind it.
//
// At feature level 3 (protocol.MuxVersionBulk) large payloads go out
// chunked: the writer interleaves one bounded chunk of each active bulk
// send between flushes of the control queue, round-robin across bulk
// sends, so an 8 MiB argument transfer no longer monopolizes the wire
// while pipelined 8-byte calls wait. Chunk data is written straight
// from the caller's argument slices (zero-copy, vectored); the read
// loop reassembles inbound chunks into one pooled buffer per sequence.
//
// Failure semantics compose with the client's resilience layer: when
// the connection dies (read/write error, reset, Close), every in-
// flight sequence fails with an error wrapping the underlying
// transport fault, which the client's RetryPolicy classifies as
// retryable and answers by dialing a fresh session. A caller's context
// ending abandons only its own sequence — the session and the other
// in-flight calls are untouched, which is the per-Seq analogue of the
// lockstep path's guarded-connection deadline.
package mux

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ninf/internal/protocol"
)

// ErrLegacy reports that the peer answered MsgHello with a complete
// reply other than MsgHelloOK: it serves the lockstep protocol only
// (it predates the multiplexed protocol or has it disabled). The
// connection carried one complete lockstep exchange and stays in frame
// sync, so the caller may keep using it lockstep.
var ErrLegacy = errors.New("mux: peer speaks the lockstep protocol only")

// errSessionClosed is the failure cause recorded by a local Close. It
// wraps net.ErrClosed so the client's transport-fault classification
// (and its closed-client refinement) applies unchanged.
var errSessionClosed = fmt.Errorf("mux: session closed: %w", net.ErrClosed)

// Negotiate offers conn the multiplexed protocol: it sends MsgHello
// and reads the reply, both in version-1 framing. On success it
// returns the server's HelloReply — the chosen version
// (protocol.MuxVersion, MuxVersionBulk or MuxVersionCache), the
// capability flags, and from crash-recovery journal servers the
// incarnation epoch (0 when not advertised) — and every subsequent
// frame on conn must use version-2 framing. Any other complete reply
// is ErrLegacy; any other error is a transport or decode fault.
func Negotiate(conn net.Conn, maxPayload int) (protocol.HelloReply, error) {
	req := protocol.HelloRequest{MaxVersion: protocol.MuxVersionCache}
	if err := protocol.WriteFrame(conn, protocol.MsgHello, req.Encode()); err != nil {
		return protocol.HelloReply{}, err
	}
	t, p, err := protocol.ReadFrame(conn, maxPayload)
	if err != nil {
		return protocol.HelloReply{}, err
	}
	if t != protocol.MsgHelloOK {
		return protocol.HelloReply{}, ErrLegacy
	}
	rep, err := protocol.DecodeHelloReply(p)
	if err != nil {
		return protocol.HelloReply{}, err
	}
	if rep.Version < protocol.MuxVersion || rep.Version > protocol.MuxVersionCache {
		return protocol.HelloReply{}, fmt.Errorf("mux: peer chose unsupported version %d", rep.Version)
	}
	return rep, nil
}

// maxWriteBatch bounds how many queued frames one vectored write
// gathers. 64 matches the deepest pipelines the benchmarks drive and
// stays well under the kernel's iovec limit.
const maxWriteBatch = 64

// bulkBurstChunks is how many consecutive chunks the writer takes from
// one bulk send before rotating to the next. Control frames still
// preempt between every chunk, so small-call latency is bounded by one
// chunk regardless; the burst only trades inter-bulk fairness for
// streaming locality — rotating 8 MiB transfers every single chunk
// walks a different source buffer each write and measurably hurts
// aggregate throughput on concurrent transfers.
const bulkBurstChunks = 4

// writeQueueDepth is the writer queue's capacity. Callers enqueuing
// past it block (backpressure), still interruptible by their context.
const writeQueueDepth = 256

// bulkAbandonStall bounds how long an abandoning caller waits for the
// writer to acknowledge dropping its argument-slice references before
// concluding the connection write is wedged and failing the session.
const bulkAbandonStall = 2 * time.Second

// result carries one demultiplexed reply to its waiting caller. bulk is
// non-nil when the reply arrived as a reassembled chunked message; fb
// then holds the full logical payload and bulk locates its head.
type result struct {
	t    protocol.MsgType
	fb   *protocol.Buffer
	bulk *protocol.BulkInfo
	err  error
}

// bulkSend is one chunked request travelling through the writer. The
// writer owns m's spans until it closes released; an abandoning caller
// sets abandoned and blocks on released so the shared argument slices
// are provably unreferenced before Roundtrip returns.
type bulkSend struct {
	seq       uint32
	m         *protocol.BulkMsg
	cur       protocol.BulkCursor
	begun     bool
	abandoned atomic.Bool
	released  chan struct{}
}

// A Session multiplexes sequenced request/reply exchanges over one
// negotiated connection. Create one with New after Negotiate; issue
// exchanges with Roundtrip (and RoundtripBulk at feature level 3) from
// any number of goroutines.
type Session struct {
	conn       net.Conn
	maxPayload int
	version    int

	writeq chan *protocol.Buffer
	bulkq  chan *bulkSend

	// wakes counts callers recently woken by a delivered reply that
	// have not yet enqueued a follow-up frame; the writer uses it to
	// decide whether yielding before a flush is likely to grow the
	// batch (see writeLoop).
	wakes atomic.Int32

	mu      sync.Mutex
	pending map[uint32]chan result
	nextSeq uint32
	err     error // terminal failure cause, set once under mu

	failOnce sync.Once
	done     chan struct{} // closed when the session fails
	wg       sync.WaitGroup
}

// New wraps a connection that completed Negotiate in a running session
// at the negotiated version. The session owns conn and closes it on
// failure or Close.
func New(conn net.Conn, maxPayload, version int) *Session {
	s := &Session{
		conn:       conn,
		maxPayload: maxPayload,
		version:    version,
		writeq:     make(chan *protocol.Buffer, writeQueueDepth),
		bulkq:      make(chan *bulkSend, writeQueueDepth),
		pending:    make(map[uint32]chan result),
		done:       make(chan struct{}),
	}
	s.wg.Add(2)
	go s.writeLoop()
	go s.readLoop()
	return s
}

// Bulk reports whether the peer negotiated chunked bulk streaming.
func (s *Session) Bulk() bool { return s.version >= protocol.MuxVersionBulk }

// Cache reports whether the peer negotiated content-addressed argument
// caching (feature level 4). The caller must additionally check the
// server's HelloFlagArgCache advertisement before emitting digests.
func (s *Session) Cache() bool { return s.version >= protocol.MuxVersionCache }

// Broken reports whether the session has failed and must be replaced.
func (s *Session) Broken() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Err returns the terminal failure cause, nil while the session lives.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// InFlight reports the number of exchanges awaiting replies.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close tears the session down: the connection closes, both goroutines
// exit, and every in-flight exchange fails with an error wrapping
// net.ErrClosed.
func (s *Session) Close() error {
	s.fail(errSessionClosed)
	s.wg.Wait()
	return nil
}

// fail records the terminal error, closes the connection (waking both
// loops), and fails every pending exchange. First cause wins.
func (s *Session) fail(cause error) {
	s.failOnce.Do(func() {
		s.mu.Lock()
		s.err = cause
		waiters := s.pending
		s.pending = nil
		s.mu.Unlock()
		close(s.done)
		s.conn.Close()
		for _, ch := range waiters {
			ch <- result{err: cause}
		}
	})
}

// register allocates a sequence number and its reply channel.
func (s *Session) register() (uint32, chan result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, nil, s.err
	}
	s.nextSeq++
	seq := s.nextSeq
	ch := make(chan result, 1)
	s.pending[seq] = ch
	return seq, ch, nil
}

// deregister abandons a sequence (its caller's context ended). The
// reply, if it later arrives, is dropped by the reader. It returns any
// result already delivered so its buffer can be released.
func (s *Session) deregister(seq uint32, ch chan result) {
	s.mu.Lock()
	if s.pending != nil {
		delete(s.pending, seq)
	}
	s.mu.Unlock()
	select {
	case r := <-ch:
		r.fb.Release()
	default:
	}
}

// wants reports whether a caller still awaits seq; the read loop uses
// it to open abandoned sequences' reassemblies in discard mode.
func (s *Session) wants(seq uint32) bool {
	s.mu.Lock()
	_, ok := s.pending[seq]
	s.mu.Unlock()
	return ok
}

// Roundtrip performs one sequenced exchange: req (consumed, whether or
// not the exchange succeeds) is stamped with a fresh Seq, queued for
// the coalescing writer, and the matching reply is awaited. The reply
// buffer is owned by the caller and must be released after decoding.
// A non-nil BulkInfo means the peer streamed the reply chunked; the
// buffer then holds the full logical payload and the info locates its
// head and segments.
//
// ctx bounds only this exchange. When it ends mid-flight the sequence
// is abandoned — the server may still execute the request — and the
// context's error is returned; the session and other in-flight
// sequences are unaffected. A session failure instead fails all
// in-flight exchanges with the transport cause, which the client's
// retry layer classifies as retryable and answers with a fresh
// session.
func (s *Session) Roundtrip(ctx context.Context, t protocol.MsgType, req *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	seq, ch, err := s.register()
	if err != nil {
		req.Release()
		return 0, nil, nil, err
	}
	protocol.StampMux(req, t, seq)
	select {
	case s.writeq <- req:
	case <-s.done:
		req.Release()
		s.deregister(seq, ch)
		return 0, nil, nil, s.Err()
	case <-ctx.Done():
		req.Release()
		s.deregister(seq, ch)
		return 0, nil, nil, ctx.Err()
	}
	select {
	case r := <-ch:
		return r.t, r.fb, r.bulk, r.err
	case <-ctx.Done():
		s.deregister(seq, ch)
		return 0, nil, nil, ctx.Err()
	}
}

// RoundtripBulk performs one sequenced exchange whose request streams
// out as chunked bulk frames. m is consumed (its head buffer released
// by the session) whether or not the exchange succeeds; its segment
// spans alias the caller's argument slices, and RoundtripBulk does not
// return until the writer provably holds no reference to them — on
// success, abandonment (MsgBulkAbort covers a partially-sent stream),
// or session failure — so the caller may reuse the slices immediately
// after return.
func (s *Session) RoundtripBulk(ctx context.Context, m *protocol.BulkMsg) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	if !s.Bulk() {
		m.Release()
		return 0, nil, nil, fmt.Errorf("mux: peer version %d lacks bulk streaming", s.version)
	}
	seq, ch, err := s.register()
	if err != nil {
		m.Release()
		return 0, nil, nil, err
	}
	bs := &bulkSend{seq: seq, m: m, cur: m.Cursor(), released: make(chan struct{})}
	select {
	case s.bulkq <- bs:
	case <-s.done:
		m.Release()
		s.deregister(seq, ch)
		return 0, nil, nil, s.Err()
	case <-ctx.Done():
		m.Release()
		s.deregister(seq, ch)
		return 0, nil, nil, ctx.Err()
	}
	select {
	case r := <-ch:
		// A reply (or session failure) means the writer finished with
		// this send; released closes promptly, and waiting guarantees
		// the spans are unreferenced before the caller reuses them.
		s.awaitReleased(bs)
		return r.t, r.fb, r.bulk, r.err
	case <-ctx.Done():
		bs.abandoned.Store(true)
		s.awaitReleased(bs)
		s.deregister(seq, ch)
		return 0, nil, nil, ctx.Err()
	}
}

// awaitReleased blocks until the writer drops its references to a bulk
// send's spans. A stall past bulkAbandonStall means the writer is wedged
// in a connection write; failing the session closes the connection,
// which unblocks the write and guarantees released closes.
func (s *Session) awaitReleased(bs *bulkSend) {
	select {
	case <-bs.released:
		return
	case <-time.After(bulkAbandonStall):
		s.fail(fmt.Errorf("mux: bulk send stalled: %w", errSessionClosed))
	}
	<-bs.released
}

// finishBulk drops the writer's references to one bulk send and lets
// any abandoning caller proceed.
func finishBulk(bs *bulkSend) {
	bs.m.Release()
	close(bs.released)
}

// writeLoop drains the control queue, coalescing every frame queued at
// wake-up time (up to maxWriteBatch) into a single vectored write, and
// interleaves chunks of active bulk sends between flushes: after each
// control batch it writes exactly one bounded chunk from one bulk send,
// rotating round-robin across them, so concurrent large transfers share
// the wire fairly and small calls never wait behind a whole bulk
// payload.
//
// Before flushing a small batch the loop may yield the processor
// (bounded): when a coalesced reply burst has just woken a crowd of
// callers, the first one's enqueue lands here before the rest have
// run, and writing immediately would cost one syscall per request —
// the lockstep cadence all over again. Yielding lets the remaining
// woken callers enqueue so the burst travels as one vectored write.
// The reader's wake count gates the yield so a lone caller pays no
// added latency: with no recently-woken callers outstanding there is
// nobody worth waiting for. With bulk chunks pending the loop never
// yields — the chunk write itself gives the crowd time to enqueue.
//
//ninflint:hotpath
func (s *Session) writeLoop() {
	defer s.wg.Done()
	batch := make([]*protocol.Buffer, 0, maxWriteBatch)
	var active []*bulkSend
	rr, burst := 0, 0
	for {
		batch = batch[:0]
		if len(active) == 0 {
			select {
			case fb := <-s.writeq:
				batch = append(batch, fb)
			case bs := <-s.bulkq:
				active = append(active, bs)
			case <-s.done:
				s.drainQueue(active)
				return
			}
			if s.wakes.Load() > 0 {
				s.wakes.Add(-1)
			}
		} else {
			select {
			case <-s.done:
				s.drainQueue(active)
				return
			default:
			}
		}
		for yields := 0; ; {
		gather:
			for len(batch) < maxWriteBatch {
				select {
				case fb := <-s.writeq:
					batch = append(batch, fb)
					if s.wakes.Load() > 0 {
						s.wakes.Add(-1)
					}
				case bs := <-s.bulkq:
					active = append(active, bs)
				default:
					break gather
				}
			}
			if len(active) > 0 || yields >= 2 || len(batch) >= maxWriteBatch || s.wakes.Load() <= 0 {
				break
			}
			yields++
			runtime.Gosched()
		}
		if len(batch) > 0 {
			err := protocol.WriteStampedFrames(s.conn, batch)
			for _, fb := range batch {
				fb.Release()
			}
			if err != nil {
				s.fail(fmt.Errorf("mux: session write failed: %w", err))
				s.drainQueue(active)
				return
			}
		}
		if len(active) == 0 {
			continue
		}
		rr %= len(active)
		bs := active[rr]
		done, err := s.bulkStep(bs)
		if done {
			// bulkStep finished bs (released closed) on every done or
			// error return; drop it before any drain so it cannot be
			// finished twice.
			active[rr] = active[len(active)-1]
			active = active[:len(active)-1]
			burst = 0
		} else if burst++; burst >= bulkBurstChunks {
			rr++
			burst = 0
		}
		if err != nil {
			s.fail(fmt.Errorf("mux: session write failed: %w", err))
			s.drainQueue(active)
			return
		}
	}
}

// bulkStep advances one bulk send by a single frame: its begin header,
// its next data chunk, or — when the caller abandoned it — a
// MsgBulkAbort that lets the receiver discard the partial reassembly.
// It reports whether the send is finished (fully written or aborted),
// in which case the writer's span references have been dropped.
func (s *Session) bulkStep(bs *bulkSend) (bool, error) {
	if bs.abandoned.Load() {
		var err error
		if bs.begun && !bs.cur.Done() {
			//lint:ninflint featgate — sends enter bulkq only via RoundtripBulk, which gates on s.Bulk()
			err = protocol.WriteMuxFrame(s.conn, protocol.MsgBulkAbort, bs.seq, nil)
		}
		finishBulk(bs)
		return true, err
	}
	if !bs.begun {
		fb := bs.m.EncodeBegin()
		//lint:ninflint featgate — sends enter bulkq only via RoundtripBulk, which gates on s.Bulk()
		err := protocol.WriteMuxFrameBuf(s.conn, protocol.MsgBulkBegin, bs.seq, fb)
		fb.Release()
		if err != nil {
			finishBulk(bs)
			return true, err
		}
		bs.begun = true
		return false, nil
	}
	done, err := bs.cur.WriteChunk(s.conn, bs.seq, protocol.DefaultBulkChunk)
	if err != nil || done {
		finishBulk(bs)
		return true, err
	}
	return false, nil
}

// drainQueue releases frames and bulk sends still queued or active when
// the session fails, closing every bulk send's released channel so
// abandoning callers unblock. Enqueuers select on done, so nothing new
// arrives after this returns.
func (s *Session) drainQueue(active []*bulkSend) {
	for _, bs := range active {
		finishBulk(bs)
	}
	for {
		select {
		case fb := <-s.writeq:
			fb.Release()
		case bs := <-s.bulkq:
			finishBulk(bs)
		default:
			return
		}
	}
}

// deliver routes one complete reply to its waiting caller, releasing it
// if the sequence was abandoned.
func (s *Session) deliver(seq uint32, r result) {
	s.mu.Lock()
	ch, ok := s.pending[seq]
	if ok {
		delete(s.pending, seq)
	}
	s.mu.Unlock()
	if !ok {
		// The caller abandoned this sequence (context ended).
		if r.fb != nil {
			r.fb.Release()
		}
		return
	}
	s.wakes.Add(1)
	ch <- r
}

// errPeerAborted is the constant failure delivered when the server
// abandons a streamed reply mid-send; wrapping io.ErrUnexpectedEOF
// keeps it classified retryable without allocating in the read loop.
var errPeerAborted = fmt.Errorf("mux: peer aborted reply: %w", io.ErrUnexpectedEOF)

// readLoop demultiplexes reply frames to their waiting callers until
// the connection dies. Chunked bulk replies reassemble here, the chunk
// data read straight from the buffered reader into the per-sequence
// reassembly buffer; replies to abandoned sequences reassemble in
// discard mode so the stream stays in sync without holding memory.
//
//ninflint:hotpath
func (s *Session) readLoop() {
	defer s.wg.Done()
	// The buffered reader amortizes read syscalls across pipelined
	// small replies; large payloads bypass its buffer (io.ReadFull
	// reads straight into the frame buffer once the header is parsed).
	br := bufio.NewReaderSize(s.conn, 64<<10)
	ra := protocol.NewReassembler(s.maxPayload, 0)
	defer ra.Close()
	for {
		t, seq, n, err := protocol.ReadMuxHeader(br, s.maxPayload)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF // mid-session close, not a clean end
			}
			s.fail(fmt.Errorf("mux: session read failed: %w", err))
			return
		}
		switch t {
		case protocol.MsgBulkBegin:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				s.fail(fmt.Errorf("mux: session read failed: %w", err))
				return
			}
			berr := ra.Begin(seq, fb.Payload(), !s.wants(seq))
			fb.Release()
			if berr != nil {
				s.fail(fmt.Errorf("mux: session read failed: %w", berr))
				return
			}
		case protocol.MsgBulkChunk:
			bd, err := ra.ReadChunk(br, seq, n)
			if err != nil {
				s.fail(fmt.Errorf("mux: session read failed: %w", err))
				return
			}
			if bd != nil {
				s.deliver(seq, result{t: bd.Type, fb: bd.FB, bulk: &bd.Bulk})
			}
		case protocol.MsgBulkAbort:
			// The server abandoned a streamed reply mid-send (drain or
			// internal failure); fail just this sequence, retryably.
			if n > 0 {
				fb, err := protocol.ReadMuxPayload(br, n)
				if err != nil {
					s.fail(fmt.Errorf("mux: session read failed: %w", err))
					return
				}
				fb.Release()
			}
			ra.Abort(seq)
			s.deliver(seq, result{err: errPeerAborted})
		default:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				s.fail(fmt.Errorf("mux: session read failed: %w", err))
				return
			}
			s.deliver(seq, result{t: t, fb: fb})
		}
	}
}
