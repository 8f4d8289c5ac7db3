package ninf

import (
	"fmt"
	"net"
	"sync"

	"ninf/internal/protocol"
)

// A CallbackFunc is a client-side function a running Ninf executable
// may invoke during a blocking call (§2.3's "client callback
// functions"). The payload format is an agreement between the
// executable and the callback; return data travels back to the
// executable, and a returned error is surfaced there as a remote
// error.
type CallbackFunc func(data []byte) ([]byte, error)

// callbackRegistry is embedded in Client.
type callbackRegistry struct {
	mu  sync.RWMutex
	fns map[string]CallbackFunc
}

// RegisterCallback makes fn invokable by server executables under the
// given name during this client's blocking calls. Passing nil removes
// the registration. Callbacks need the quiet parked stream of a
// lockstep call, so while any is registered the client's connection
// runs lockstep even against a multiplexed server. Registering the
// first callback or removing the last retires a connection whose
// protocol is already settled, so the next dial negotiates to match.
func (c *Client) RegisterCallback(name string, fn CallbackFunc) {
	c.cb.mu.Lock()
	if c.cb.fns == nil {
		c.cb.fns = make(map[string]CallbackFunc)
	}
	before := len(c.cb.fns) > 0
	if fn == nil {
		delete(c.cb.fns, name)
	} else {
		c.cb.fns[name] = fn
	}
	changed := before != (len(c.cb.fns) > 0)
	c.cb.mu.Unlock()
	c.mu.Lock()
	settled := c.probed
	c.mu.Unlock()
	if changed && settled {
		c.drop(nil)
	}
}

// hasCallbacks reports whether any client callback is registered.
func (c *Client) hasCallbacks() bool {
	c.cb.mu.RLock()
	defer c.cb.mu.RUnlock()
	return len(c.cb.fns) > 0
}

func (c *Client) lookupCallback(name string) CallbackFunc {
	c.cb.mu.RLock()
	defer c.cb.mu.RUnlock()
	return c.cb.fns[name]
}

// lockstepRoundTrip writes one request frame on a lockstep connection
// and reads the reply, answering any MsgCallback frames the server
// interleaves before it (only a blocking call's executable sends
// them). It consumes req (released once written) and returns the
// reply in a pooled buffer the caller must Release after decoding.
func (c *Client) lockstepRoundTrip(conn net.Conn, t protocol.MsgType, req *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, error) {
	err := protocol.WriteFrameBuf(conn, t, req)
	req.Release()
	if err != nil {
		return 0, nil, err
	}
	for {
		typ, fb, err := protocol.ReadFrameBuf(conn, c.maxPayload)
		if err != nil || typ != protocol.MsgCallback {
			return typ, fb, err
		}
		err = c.answerCallback(conn, fb.Payload())
		fb.Release()
		if err != nil {
			return 0, nil, err
		}
	}
}

// answerCallback runs the registered function and replies. Unknown
// names and function errors are reported to the server as MsgError;
// the call itself keeps waiting.
func (c *Client) answerCallback(conn net.Conn, payload []byte) error {
	req, err := protocol.DecodeCallbackRequest(payload)
	if err != nil {
		return err
	}
	fn := c.lookupCallback(req.Name)
	if fn == nil {
		return protocol.WriteFrame(conn, protocol.MsgError,
			protocol.EncodeErrorReply(protocol.CodeUnknownRoutine,
				fmt.Sprintf("no client callback %q", req.Name)))
	}
	data, err := fn(req.Data)
	if err != nil {
		return protocol.WriteFrame(conn, protocol.MsgError,
			protocol.EncodeErrorReply(protocol.CodeExecFailed, err.Error()))
	}
	reply := protocol.CallbackReply{Data: data}
	return protocol.WriteFrame(conn, protocol.MsgCallbackOK, reply.Encode())
}
