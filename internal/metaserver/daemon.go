package metaserver

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/protocol"
)

// daemonMaxPayload bounds any single frame the daemon accepts or a
// replica exchanges: large enough for a full gossip batch, small
// enough that a hostile or corrupted length word cannot balloon
// memory.
const daemonMaxPayload = 1 << 20

// Serve runs the metaserver daemon protocol on a listener: clients
// send MsgSchedule to obtain a placement, MsgObserve to report call
// outcomes, and MsgPing for liveness; fellow replicas send MsgGossip.
// Serve returns when the listener closes.
func (m *Metaserver) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			m.ServeConn(conn)
		}()
	}
}

// ServeConn handles one client connection. Every frame is read under
// Config.ConnReadTimeout — a peer that connects and then stalls (or
// dies without a FIN) is severed instead of parking this goroutine
// forever — and bounded by daemonMaxPayload. Protocol violations
// (malformed payloads, unknown frame types, oversized frames) answer
// one MsgError and close the connection; only application-level
// refusals (no eligible server) keep it open.
func (m *Metaserver) ServeConn(conn net.Conn) {
	for {
		conn.SetDeadline(time.Now().Add(m.cfg.ConnReadTimeout))
		typ, payload, err := protocol.ReadFrame(conn, daemonMaxPayload)
		if err != nil {
			if errors.Is(err, protocol.ErrOversized) {
				writeErr(conn, protocol.CodeBadArguments, err.Error())
			}
			return
		}
		switch typ {
		case protocol.MsgPing:
			if protocol.WriteFrame(conn, protocol.MsgPong, nil) != nil {
				return
			}
		case protocol.MsgSchedule:
			req, err := protocol.DecodeScheduleRequest(payload)
			if err != nil {
				writeErr(conn, protocol.CodeBadArguments, err.Error())
				return
			}
			pl, err := m.Place(ninf.SchedRequest{
				Routine:  req.Routine,
				InBytes:  req.InBytes,
				OutBytes: req.OutBytes,
				Ops:      req.Ops,
				Exclude:  req.Exclude,
				Affinity: req.Affinity,
			})
			if err != nil {
				if writeErr(conn, protocol.CodeOverloaded, err.Error()) != nil {
					return
				}
				continue
			}
			reply := protocol.ScheduleReply{Name: pl.Name, Addr: m.addrOf(pl.Name)}
			if protocol.WriteFrame(conn, protocol.MsgScheduleOK, reply.Encode()) != nil {
				return
			}
		case protocol.MsgObserve:
			req, err := protocol.DecodeObserveRequest(payload)
			if err != nil {
				writeErr(conn, protocol.CodeBadArguments, err.Error())
				return
			}
			m.ObserveRemote(req)
			if protocol.WriteFrame(conn, protocol.MsgObserveOK, nil) != nil {
				return
			}
		case protocol.MsgGossip:
			req, err := protocol.DecodeGossipRequest(payload)
			if err != nil {
				writeErr(conn, protocol.CodeBadArguments, err.Error())
				return
			}
			reply := m.handleGossip(req)
			fb := protocol.AcquireBuffer(reply.SizeHint())
			reply.EncodeInto(fb.Encoder())
			err = writeGossipFrame(conn, protocol.MsgGossipOK, fb)
			fb.Release()
			if err != nil {
				return
			}
		default:
			writeErr(conn, protocol.CodeInternal, fmt.Sprintf("unexpected frame %v", typ))
			return
		}
	}
}

func (m *Metaserver) addrOf(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.servers[name]; ok {
		return e.Addr
	}
	return ""
}

func writeErr(conn io.Writer, code uint32, detail string) error {
	return protocol.WriteFrame(conn, protocol.MsgError, protocol.EncodeErrorReply(code, detail))
}

// Client control-path timeouts. The gossip path between replicas got
// its own deadlines; the latency-critical client path needs them just
// as much — a black-holed replica (partition or silent drop rather
// than RST) must fail over as fast as a crashed one, not after the OS
// TCP timeout. Vars, not consts, so tests can shrink them.
var (
	// metaDialTimeout bounds connection establishment to a replica.
	metaDialTimeout = 5 * time.Second
	// metaExchangeTimeout bounds one request/reply round trip
	// (including the liveness ping, when one is owed).
	metaExchangeTimeout = 5 * time.Second
)

// metaConnIdle is how long a pooled control connection may sit unused
// before it is preemptively redialed: the daemon severs idle
// connections (Config.ConnReadTimeout), and sending a non-idempotent
// request down a likely-dead conn forces the replay question below.
const metaConnIdle = 30 * time.Second

// metaReplica is the client-side view of one metaserver address:
// its persistent control connection and its failure accounting.
type metaReplica struct {
	addr string
	dial func() (net.Conn, error)

	// Guarded by RemoteScheduler.mu:
	conn       net.Conn
	fails      int       // consecutive transport failures
	avoidUntil time.Time // backoff window after a failure
	lastOK     time.Time
}

// cacheEntry is one server remembered from a successful placement,
// usable while fresh if every metaserver becomes unreachable.
type cacheEntry struct {
	addr string
	at   time.Time
}

// RemoteScheduler is the client side of the daemon protocol: a
// ninf.Scheduler that forwards placement decisions to a metaserver
// process over the network.
//
// Given several metaserver addresses it is highly available: requests
// go to the current replica, and any transport error fails over to the
// next, with a capped-jitter backoff window ordering unhealthy
// replicas last. A replica being retried after failures must first
// answer a MsgPing health check before it gets real traffic again.
// Outcome reports are stamped with a per-scheduler origin and sequence
// number, so a report replayed to a second replica after failover is
// counted once by the replica set, not twice.
//
// When every metaserver is unreachable the scheduler degrades rather
// than fails: placements fall back to a TTL'd cache of servers
// recently handed out, rotated round-robin and honoring the request's
// exclusions, with Placement.Degraded set so callers can see they ran
// on possibly-stale routing.
//
// The scheduler keeps one Client per server address and names it in
// every placement there, live or degraded, so transactions share each
// server's connection, interface cache and warm digests. Close closes
// them.
type RemoteScheduler struct {
	// DialMeta opens a connection to the (single) metaserver. It is
	// the pre-HA configuration surface, used only when no addresses
	// were given to NewRemoteScheduler.
	DialMeta func() (net.Conn, error)
	// DialServer opens a connection to a computational server given
	// the address advertised by the metaserver. nil means net.Dial
	// over TCP.
	DialServer func(addr string) (net.Conn, error)
	// CacheTTL bounds how long a cached placement may serve degraded
	// mode (default 30s).
	CacheTTL time.Duration
	// Origin stamps outcome reports for idempotent replay; defaulted
	// to a process-unique ID.
	Origin string

	mu       sync.Mutex
	metas    []*metaReplica
	cur      int // index of the currently preferred replica
	seq      uint64
	cache    map[string]cacheEntry
	clients  map[string]*ninf.Client // by server address
	rrDeg    int                     // round-robin cursor for degraded placements
	degraded int                     // degraded placements handed out
	init     bool
}

// NewRemoteScheduler connects to one or more metaserver daemons over
// TCP. With several addresses the scheduler fails over between them;
// the first is preferred initially.
func NewRemoteScheduler(addrs ...string) *RemoteScheduler {
	r := &RemoteScheduler{}
	for _, a := range addrs {
		a := a
		r.metas = append(r.metas, &metaReplica{
			addr: a,
			dial: func() (net.Conn, error) { return net.DialTimeout("tcp", a, metaDialTimeout) },
		})
	}
	return r
}

// AddMeta registers an additional metaserver replica reachable
// through a custom dialer (nil means TCP to addr). Replicas are tried
// in registration order; the first registered is preferred initially.
func (r *RemoteScheduler) AddMeta(addr string, dial func() (net.Conn, error)) {
	if dial == nil {
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, metaDialTimeout) }
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metas = append(r.metas, &metaReplica{addr: addr, dial: dial})
}

var clientOriginCounter uint64

// ensureLocked finishes construction lazily so zero-value and
// struct-literal schedulers keep working. Callers hold r.mu.
func (r *RemoteScheduler) ensureLocked() {
	if r.init {
		return
	}
	r.init = true
	if len(r.metas) == 0 && r.DialMeta != nil {
		r.metas = append(r.metas, &metaReplica{addr: "metaserver", dial: r.DialMeta})
	}
	if r.CacheTTL <= 0 {
		r.CacheTTL = 30 * time.Second
	}
	if r.Origin == "" {
		r.Origin = fmt.Sprintf("client-%x-%d", time.Now().UnixNano(), atomic.AddUint64(&clientOriginCounter, 1))
	}
	r.cache = make(map[string]cacheEntry)
	r.clients = make(map[string]*ninf.Client)
}

// metaBackoff sizes the avoidance window after the fails-th
// consecutive transport failure: capped jitter, 50ms doubling to a 2s
// ceiling, drawn uniformly from [d/2, d). Short enough that a revived
// replica is retried promptly, long enough that a dead one is not
// hammered on every placement.
func metaBackoff(fails int) time.Duration {
	// Shift only inside the doubling range: past it (or on a bogus
	// count) the window is pinned at the ceiling, and an unclamped
	// shift would overflow Duration once fails grows into the dozens.
	d := 2 * time.Second
	if fails >= 1 && fails <= 6 {
		d = 50 * time.Millisecond << uint(fails-1)
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// errNoMetaserver reports a scheduler constructed with no way to reach
// any metaserver.
var errNoMetaserver = errors.New("metaserver: no metaserver configured")

// roundTrip sends one request to the replica set: the preferred
// replica first, then the others, replicas inside their backoff
// window last (they are still tried, so a full outage probes everyone
// before giving up). A MsgError reply is the daemon answering — it
// converts to RemoteError and does not fail over.
func (r *RemoteScheduler) roundTrip(typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	if len(r.metas) == 0 {
		return 0, nil, errNoMetaserver
	}
	n := len(r.metas)
	now := time.Now()
	order := make([]*metaReplica, 0, n)
	var avoided []*metaReplica
	for i := 0; i < n; i++ {
		mr := r.metas[(r.cur+i)%n]
		if now.Before(mr.avoidUntil) {
			avoided = append(avoided, mr)
			continue
		}
		order = append(order, mr)
	}
	order = append(order, avoided...)

	var lastErr error
	for _, mr := range order {
		rt, rp, err := r.exchangeLocked(mr, typ, payload)
		if err != nil {
			lastErr = err
			mr.fails++
			mr.avoidUntil = time.Now().Add(metaBackoff(mr.fails))
			continue
		}
		mr.fails = 0
		mr.avoidUntil = time.Time{}
		mr.lastOK = time.Now()
		for i, x := range r.metas {
			if x == mr {
				r.cur = i
			}
		}
		if rt == protocol.MsgError {
			er, derr := protocol.DecodeErrorReply(rp)
			if derr != nil {
				return 0, nil, derr
			}
			return 0, nil, &protocol.RemoteError{Code: er.Code, Detail: er.Detail, RetryAfterMillis: er.RetryAfterMillis}
		}
		return rt, rp, nil
	}
	return 0, nil, fmt.Errorf("metaserver: all %d metaservers unreachable: %w", n, lastErr)
}

// idempotentMsg reports whether a frame is safe to execute twice
// server-side: pings are stateless and outcome reports carry
// origin+seq dedup. MsgSchedule is not — each execution bumps the
// placed server's optimistic queue depth, balanced by exactly one
// later Observe decrement.
func idempotentMsg(t protocol.MsgType) bool {
	return t == protocol.MsgObserve || t == protocol.MsgPing
}

// exchangeLocked runs one request/reply on a replica. A failure on an
// existing pooled connection (the daemon's idle timeout may have
// severed it) is retried once on a fresh dial before the replica is
// declared down — but only when the replay cannot execute the request
// twice server-side: either the pooled write itself failed (a partial
// frame is unparseable, so nothing ran) or the frame is idempotent.
// A non-idempotent frame whose write was accepted before the
// connection died may already have executed; replaying it would
// double-run it, so the attempt fails and ordinary failover takes
// over. Idle connections are preemptively redialed so the ambiguous
// case stays rare. Callers hold r.mu.
func (r *RemoteScheduler) exchangeLocked(mr *metaReplica, typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte, error) {
	if mr.conn != nil && time.Since(mr.lastOK) > metaConnIdle {
		r.dropLocked(mr)
	}
	if mr.conn != nil {
		rt, rp, sent, err := r.onceLocked(mr, typ, payload, false)
		if err == nil {
			return rt, rp, nil
		}
		if sent && !idempotentMsg(typ) {
			return 0, nil, err
		}
	}
	rt, rp, _, err := r.onceLocked(mr, typ, payload, mr.fails > 0)
	return rt, rp, err
}

// onceLocked performs a single attempt, dialing if needed. ping makes
// a replica that previously failed prove liveness with a MsgPing round
// trip before the real request. sent reports whether the request frame
// was fully handed to the transport (and so may have been executed
// even when the reply never arrived). Callers hold r.mu.
func (r *RemoteScheduler) onceLocked(mr *metaReplica, typ protocol.MsgType, payload []byte, ping bool) (rt protocol.MsgType, rp []byte, sent bool, err error) {
	fresh := false
	if mr.conn == nil {
		conn, err := mr.dial()
		if err != nil {
			return 0, nil, false, err
		}
		mr.conn = conn
		fresh = true
	}
	// The whole exchange runs under a deadline: a replica that accepts
	// and then black-holes must fail over as fast as one that crashed.
	mr.conn.SetDeadline(time.Now().Add(metaExchangeTimeout))
	if fresh && ping {
		if err := protocol.WriteFrame(mr.conn, protocol.MsgPing, nil); err != nil {
			r.dropLocked(mr)
			return 0, nil, false, err
		}
		pt, _, err := protocol.ReadFrame(mr.conn, daemonMaxPayload)
		if err != nil {
			r.dropLocked(mr)
			return 0, nil, false, err
		}
		if pt != protocol.MsgPong {
			r.dropLocked(mr)
			return 0, nil, false, fmt.Errorf("metaserver: unexpected reply %v to ping", pt)
		}
	}
	if err := protocol.WriteFrame(mr.conn, typ, payload); err != nil {
		r.dropLocked(mr)
		return 0, nil, false, err
	}
	rt, rp, err = protocol.ReadFrame(mr.conn, daemonMaxPayload)
	if err != nil {
		r.dropLocked(mr)
		return 0, nil, true, err
	}
	return rt, rp, true, nil
}

// dropLocked discards a replica's pooled connection. Callers hold
// r.mu.
func (r *RemoteScheduler) dropLocked(mr *metaReplica) {
	if mr.conn != nil {
		mr.conn.Close()
		mr.conn = nil
	}
}

// placementLocked names the server's Client in a placement, creating
// the Client on the server address's first placement. Callers hold
// r.mu.
func (r *RemoteScheduler) placementLocked(name, addr string, degraded bool) (ninf.Placement, error) {
	c, ok := r.clients[addr]
	if !ok {
		dial := r.DialServer
		if dial == nil {
			dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
		}
		var err error
		if c, err = ninf.NewClient(func() (net.Conn, error) { return dial(addr) }); err != nil {
			return ninf.Placement{}, err
		}
		r.clients[addr] = c
	}
	return ninf.Placement{Name: name, Client: c, Degraded: degraded}, nil
}

// Place implements ninf.Scheduler. A transport-level failure of every
// replica falls back to the degraded placement cache; an explicit
// refusal from a reachable daemon (e.g. no eligible server) is
// returned as-is.
func (r *RemoteScheduler) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	wire := protocol.ScheduleRequest{
		Routine:  req.Routine,
		InBytes:  req.InBytes,
		OutBytes: req.OutBytes,
		Ops:      req.Ops,
		Exclude:  req.Exclude,
		Affinity: req.Affinity,
	}
	typ, p, err := r.roundTrip(protocol.MsgSchedule, wire.Encode())
	if err != nil {
		var re *protocol.RemoteError
		if errors.As(err, &re) {
			return ninf.Placement{}, err
		}
		return r.placeDegraded(req, err)
	}
	if typ != protocol.MsgScheduleOK {
		return ninf.Placement{}, fmt.Errorf("metaserver: unexpected reply %v to schedule", typ)
	}
	reply, err := protocol.DecodeScheduleReply(p)
	if err != nil {
		return ninf.Placement{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	r.cache[reply.Name] = cacheEntry{addr: reply.Addr, at: time.Now()}
	return r.placementLocked(reply.Name, reply.Addr, false)
}

// placeDegraded serves a placement from the cache of servers the
// metaservers recently handed out: fresh entries minus the request's
// exclusions, rotated round-robin. The per-call exclusion loop in the
// transaction layer supplies the failure handling a live metaserver
// would — a cached server that fails is excluded on the retry and the
// rotation moves on.
func (r *RemoteScheduler) placeDegraded(req ninf.SchedRequest, cause error) (ninf.Placement, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	excluded := make(map[string]bool, len(req.Exclude))
	for _, x := range req.Exclude {
		excluded[x] = true
	}
	now := time.Now()
	names := make([]string, 0, len(r.cache))
	for name, ce := range r.cache {
		if now.Sub(ce.at) > r.CacheTTL {
			delete(r.cache, name)
			continue
		}
		if excluded[name] {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return ninf.Placement{}, fmt.Errorf("metaserver: degraded and no usable cached server: %w", cause)
	}
	sort.Strings(names)
	r.rrDeg++
	name := names[r.rrDeg%len(names)]
	r.degraded++
	return r.placementLocked(name, r.cache[name].addr, true)
}

// Observe implements ninf.Scheduler.
func (r *RemoteScheduler) Observe(serverName string, bytes int64, elapsed time.Duration, failed bool) {
	r.observe(protocol.ObserveRequest{
		Name:   serverName,
		Bytes:  bytes,
		Nanos:  int64(elapsed),
		Failed: failed,
	})
}

// ObserveErr forwards error-classified feedback: an overload rejection
// is flagged (with its retry-after hint) so the daemon applies the
// penalty path instead of breaker failure accounting.
func (r *RemoteScheduler) ObserveErr(serverName string, bytes int64, elapsed time.Duration, callErr error) {
	wire := protocol.ObserveRequest{
		Name:   serverName,
		Bytes:  bytes,
		Nanos:  int64(elapsed),
		Failed: callErr != nil,
	}
	var re *protocol.RemoteError
	if callErr != nil && errors.As(callErr, &re) && re.Code == protocol.CodeOverloaded {
		wire.Overloaded = true
		wire.RetryAfterMillis = re.RetryAfterMillis
	}
	r.observe(wire)
}

// observe stamps the report with this scheduler's origin and next
// sequence number — the identity that keeps a replayed report from
// being double-counted — and sends it. Observations are advisory;
// errors are deliberately dropped (roundTrip has already retried every
// replica).
func (r *RemoteScheduler) observe(wire protocol.ObserveRequest) {
	r.mu.Lock()
	r.ensureLocked()
	r.seq++
	wire.Origin, wire.Seq = r.Origin, r.seq
	r.mu.Unlock()
	r.roundTrip(protocol.MsgObserve, wire.Encode())
}

// MetaStatus is the client-side health view of one metaserver replica.
type MetaStatus struct {
	// Addr is the replica's configured address.
	Addr string
	// Current marks the replica requests currently prefer.
	Current bool
	// Fails is the consecutive transport-failure streak.
	Fails int
	// AvoidedUntil is the end of the failure backoff window (zero when
	// healthy).
	AvoidedUntil time.Time
	// LastOK is when the replica last answered (zero if never).
	LastOK time.Time
}

// SchedulerStatus is RemoteScheduler introspection: replica health and
// degraded-mode accounting.
type SchedulerStatus struct {
	Metas []MetaStatus
	// CachedServers is the current placement-cache population
	// (including possibly-stale entries not yet pruned).
	CachedServers int
	// DegradedPlacements counts placements served from the cache while
	// every metaserver was unreachable.
	DegradedPlacements int
}

// Status reports replica health and degraded-mode accounting.
func (r *RemoteScheduler) Status() SchedulerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	st := SchedulerStatus{CachedServers: len(r.cache), DegradedPlacements: r.degraded}
	for i, mr := range r.metas {
		st.Metas = append(st.Metas, MetaStatus{
			Addr:         mr.addr,
			Current:      i == r.cur,
			Fails:        mr.fails,
			AvoidedUntil: mr.avoidUntil,
			LastOK:       mr.lastOK,
		})
	}
	return st
}

// Close releases all metaserver connections and closes the server
// Clients placements named, failing calls still running through them.
func (r *RemoteScheduler) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for addr, c := range r.clients {
		c.Close()
		delete(r.clients, addr)
	}
	var first error
	for _, mr := range r.metas {
		if mr.conn != nil {
			if err := mr.conn.Close(); err != nil && first == nil {
				first = err
			}
			mr.conn = nil
		}
	}
	return first
}

var _ ninf.Scheduler = (*RemoteScheduler)(nil)
