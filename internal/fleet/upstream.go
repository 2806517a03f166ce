package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"corun/internal/server"
)

// upstreamTimeout bounds every coordinator→node round trip, whatever
// the caller's context allows.
const upstreamTimeout = 5 * time.Second

// maxIdleConns is how many keep-alive connections a member keeps to
// its node, and idleConnTimeout how long one may sit unused before it
// is closed rather than reused — net/http.Transport's per-host values
// as the coordinator used them before it had its own pool.
const (
	maxIdleConns    = 64
	idleConnTimeout = 90 * time.Second
)

// upstream is the coordinator's one client for one node. Each round
// trip runs on the caller's goroutine over a pooled keep-alive
// connection: the request goes out in a single write, the reply is
// parsed by http.ReadResponse and its body read into a pooled buffer.
// There is no background reader per connection, so a connection the
// node dropped while it sat idle is found when it is next used — see
// do for the retry that covers it.
type upstream struct {
	addr string // dial address, host:port
	host string // Host header
	base string // path prefix of the node URL ("" for a bare host)

	mu   sync.Mutex
	idle []*upConn
}

type upConn struct {
	nc        net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	idleSince time.Time // when put returned it to the pool
}

// newUpstream parses a node's base URL. Only http:// is accepted: no
// corund serves TLS.
func newUpstream(raw string) (*upstream, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if u.Scheme == "https" {
		return nil, fmt.Errorf("URL %q is https, but corund serves plain HTTP only: use http://", raw)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("URL %q must be http://host[:port]", raw)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &upstream{addr: addr, host: u.Host, base: strings.TrimRight(u.EscapedPath(), "/")}, nil
}

// reply is one node answer. body lives in a pooled buffer (the node's
// own pool, server.GetBuffer) until release.
type reply struct {
	status int
	header http.Header
	body   []byte
	buf    *server.Buffer
}

func (r reply) release() { server.PutBuffer(r.buf) }

// do sends one request (body, if non-nil, as JSON) and reads the reply,
// its body capped at limit bytes. It gives up at the earlier of ctx's
// deadline and upstreamTimeout, and at once when ctx is cancelled; the
// error is then ctx's.
//
// A pooled connection that fails before any reply byte arrives was
// dropped by the node while idle — most often the node was restarted
// on its old port. That is not a node fault, so the idle pool is
// discarded and the request sent once more on a fresh dial.
//
// method and path go onto the request line as they are, so do refuses
// any that would break its framing; callers escape what they did not
// write themselves.
func (u *upstream) do(ctx context.Context, method, path string, body []byte, limit int) (reply, error) {
	if !plainToken(method) || !plainToken(path) {
		return reply{}, fmt.Errorf("fleet: refusing request line %q %q: space or control byte", method, path)
	}
	deadline := time.Now().Add(upstreamTimeout)
	byCtx := false
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline, byCtx = d, true
	}
	fail := func(err error) (reply, error) {
		if byCtx && server.IsTimeout(err) {
			// The connection's deadline is ctx's: wait out the moment
			// until ctx's own timer fires, so callers see it ended.
			<-ctx.Done()
		}
		if cerr := ctx.Err(); cerr != nil {
			return reply{}, cerr
		}
		return reply{}, err
	}
	fresh := false
	for {
		pc, reused, err := u.get(ctx, deadline, fresh)
		if err != nil {
			return fail(err)
		}
		rep, early, err := u.exchange(ctx, pc, deadline, method, path, body, limit)
		if err == nil {
			return rep, nil
		}
		if reused && early && ctx.Err() == nil && !server.IsTimeout(err) {
			u.closeIdle()
			fresh = true
			continue
		}
		return fail(err)
	}
}

// exchange runs one round trip on pc and returns pc to the pool when
// the reply was read whole and the node keeps the connection open;
// otherwise it closes pc. early reports a failure before any reply
// byte arrived.
func (u *upstream) exchange(ctx context.Context, pc *upConn, deadline time.Time,
	method, path string, body []byte, limit int) (rep reply, early bool, err error) {
	pc.nc.SetDeadline(deadline)
	// Cancelling ctx interrupts a blocked write or read at once.
	stop := context.AfterFunc(ctx, func() { pc.nc.SetDeadline(time.Unix(1, 0)) })
	keep := false
	defer func() {
		if stop() && keep {
			u.put(pc)
		} else {
			pc.nc.Close()
		}
	}()

	bw := pc.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(u.base)
	bw.WriteString(path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(u.host)
	if body != nil {
		bw.WriteString("\r\nContent-Type: application/json\r\nContent-Length: ")
		var n [20]byte
		bw.Write(strconv.AppendInt(n[:0], int64(len(body)), 10))
	}
	bw.WriteString("\r\n\r\n")
	bw.Write(body)
	if err := bw.Flush(); err != nil {
		return reply{}, true, err
	}
	if _, err := pc.br.Peek(1); err != nil {
		return reply{}, true, err
	}
	resp, err := http.ReadResponse(pc.br, nil)
	if err != nil {
		return reply{}, false, err
	}
	buf := server.GetBuffer()
	b, complete, err := server.ReadBody(resp.Body, buf.B, limit)
	buf.B = b
	if err != nil {
		server.PutBuffer(buf)
		return reply{}, false, err
	}
	keep = complete && !resp.Close
	return reply{status: resp.StatusCode, header: resp.Header, body: b, buf: buf}, false, nil
}

// get pops the most recently used idle connection, or dials one when
// the pool is empty or fresh is set. A connection idle longer than
// idleConnTimeout may have been dropped silently on the way to the node
// (a NAT or firewall forgets it), which would only show as a read that
// runs into the deadline; it is closed instead, with every connection
// under it, which went idle earlier still.
func (u *upstream) get(ctx context.Context, deadline time.Time, fresh bool) (*upConn, bool, error) {
	if !fresh {
		u.mu.Lock()
		if n := len(u.idle); n > 0 {
			if pc := u.idle[n-1]; time.Since(pc.idleSince) < idleConnTimeout {
				u.idle = u.idle[:n-1]
				u.mu.Unlock()
				return pc, true, nil
			}
			for _, pc := range u.idle {
				pc.nc.Close()
			}
			u.idle = u.idle[:0]
		}
		u.mu.Unlock()
	}
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", u.addr)
	if err != nil {
		return nil, false, err
	}
	return &upConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, false, nil
}

func (u *upstream) put(pc *upConn) {
	pc.idleSince = time.Now()
	u.mu.Lock()
	if len(u.idle) < maxIdleConns {
		u.idle = append(u.idle, pc)
		pc = nil
	}
	u.mu.Unlock()
	if pc != nil {
		pc.nc.Close()
	}
}

// closeIdle closes every pooled connection.
func (u *upstream) closeIdle() {
	u.mu.Lock()
	idle := u.idle
	u.idle = nil
	u.mu.Unlock()
	for _, pc := range idle {
		pc.nc.Close()
	}
}

// plainToken reports whether s can go onto a request line as it is: a
// space, control byte or DEL would end the method or target early and
// let the rest be read as headers, or as a second request.
func plainToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] == 0x7f {
			return false
		}
	}
	return true
}
