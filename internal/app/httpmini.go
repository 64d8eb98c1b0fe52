package app

import (
	"fmt"
	"strconv"
	"strings"

	"hydranet/internal/tcp"
)

// The mini-HTTP protocol used by examples and the cache agent:
//
//	request:  "GET <path>\n"
//	response: "<status> <content-length>\n<body>"
//
// One request per connection, like HTTP/1.0 without keep-alive.

// HTTPServer returns an accept handler serving the given pages. Unknown
// paths get a 404.
func HTTPServer(pages map[string]string) func(*tcp.Conn) {
	return func(c *tcp.Conn) {
		readRequestLine(c, func(path string) {
			body, ok := pages[path]
			status := 200
			if !ok {
				status, body = 404, "not found: "+path
			}
			Source(c, encodeResponse(status, []byte(body)), true)
		})
	}
}

// HTTPGet issues one request over an established or connecting conn and
// calls done with the parsed response (or ok=false on connection failure).
// It closes its end once the response is complete or the peer has closed.
func HTTPGet(c *tcp.Conn, path string, done func(status int, body []byte, ok bool)) {
	var buf []byte
	finished := false
	finish := func(status int, body []byte, ok bool) {
		if finished {
			return
		}
		finished = true
		done(status, body, ok)
	}
	c.OnReadable(func() {
		tmp := make([]byte, 4096)
		for {
			n := c.Read(tmp)
			if n == 0 {
				break
			}
			buf = append(buf, tmp[:n]...)
		}
		if status, body, complete := decodeResponse(buf); complete {
			c.Close()
			finish(status, body, true)
		} else if c.PeerClosed() {
			c.Close()
			finish(0, nil, false)
		}
	})
	c.OnClosed(func(err error) {
		if err != nil {
			finish(0, nil, false)
		}
	})
	Source(c, []byte("GET "+path+"\n"), false)
}

// CacheAgent is the paper's "active cache": a scaled-down replica running
// on a host server as agent of the origin service. Hits are served from
// memory under the service's virtual address; misses are fetched from the
// origin over an ordinary TCP connection and remembered.
type CacheAgent struct {
	dialOrigin func() (*tcp.Conn, error)
	cache      map[string][]byte
	status     map[string]int

	// Stats
	hits, misses uint64
	// pending coalesces concurrent misses for the same path.
	pending map[string][]*tcp.Conn
}

// NewCacheAgent creates an agent that reaches its origin via dialOrigin.
func NewCacheAgent(dialOrigin func() (*tcp.Conn, error)) *CacheAgent {
	return &CacheAgent{
		dialOrigin: dialOrigin,
		cache:      make(map[string][]byte),
		status:     make(map[string]int),
		pending:    make(map[string][]*tcp.Conn),
	}
}

// Stats returns cache hits and origin fetches.
func (a *CacheAgent) Stats() (hits, misses uint64) { return a.hits, a.misses }

// Accept is the agent's TCP accept handler.
func (a *CacheAgent) Accept(c *tcp.Conn) {
	readRequestLine(c, func(path string) {
		if body, ok := a.cache[path]; ok {
			a.hits++
			Source(c, encodeResponse(a.status[path], body), true)
			return
		}
		// Miss: queue the client and fetch once.
		a.pending[path] = append(a.pending[path], c)
		if len(a.pending[path]) > 1 {
			return // a fetch is already in flight
		}
		a.misses++
		a.fetch(path)
	})
}

func (a *CacheAgent) fetch(path string) {
	fail := func() {
		for _, w := range a.pending[path] {
			Source(w, encodeResponse(502, []byte("origin unreachable")), true)
		}
		delete(a.pending, path)
	}
	oc, err := a.dialOrigin()
	if err != nil {
		fail()
		return
	}
	HTTPGet(oc, path, func(status int, body []byte, ok bool) {
		if !ok {
			fail()
			return
		}
		a.cache[path] = body
		a.status[path] = status
		for _, w := range a.pending[path] {
			Source(w, encodeResponse(status, body), true)
		}
		delete(a.pending, path)
	})
}

// --- wire helpers -----------------------------------------------------------

func encodeResponse(status int, body []byte) []byte {
	head := fmt.Sprintf("%d %d\n", status, len(body))
	return append([]byte(head), body...)
}

// decodeResponse returns the parsed response once fully buffered.
func decodeResponse(buf []byte) (status int, body []byte, complete bool) {
	i := strings.IndexByte(string(buf), '\n')
	if i < 0 {
		return 0, nil, false
	}
	parts := strings.Fields(string(buf[:i]))
	if len(parts) != 2 {
		return 0, nil, false
	}
	status, err1 := strconv.Atoi(parts[0])
	n, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return 0, nil, false
	}
	rest := buf[i+1:]
	if len(rest) < n {
		return 0, nil, false
	}
	return status, rest[:n], true
}

// readRequestLine buffers until the first newline and hands the path to fn.
func readRequestLine(c *tcp.Conn, fn func(path string)) {
	var req []byte
	handled := false
	c.OnReadable(func() {
		if handled {
			return
		}
		tmp := make([]byte, 1024)
		for {
			n := c.Read(tmp)
			if n == 0 {
				break
			}
			req = append(req, tmp[:n]...)
		}
		i := strings.IndexByte(string(req), '\n')
		if i < 0 {
			return
		}
		handled = true
		line := strings.TrimSpace(string(req[:i]))
		path := strings.TrimSpace(strings.TrimPrefix(line, "GET"))
		fn(path)
	})
}
