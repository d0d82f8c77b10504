package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by exactly one
// goroutine: a request is written only after the previous response has
// been read in full, so the number of connections is the number of
// requests the generator can have in flight. A transport error closes
// the connection; the next request redials.
type conn struct {
	addr  string
	c     net.Conn
	br    *bufio.Reader
	req   bytes.Buffer
	body  bytes.Buffer
	trace bool  // send X-Bench-Id so the traced server can join spans
	seq   int64 // request ids for X-Bench-Id
	base  int64 // id space of this connection
}

type response struct {
	status int
	etag   string
	body   []byte // valid until the next request on the conn
}

func newConn(addr string, id int, trace bool) *conn {
	return &conn{addr: addr, trace: trace, base: int64(id) << 40}
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

func (c *conn) dial() error {
	if c.c != nil {
		return nil
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 64<<10)
	return nil
}

// nextID returns the id the next request will carry.
func (c *conn) nextID() int64 { return c.base | (c.seq + 1) }

func (c *conn) write(method, target, inm string, body []byte) error {
	if err := c.dial(); err != nil {
		return err
	}
	c.seq++
	c.req.Reset()
	fmt.Fprintf(&c.req, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, target)
	if c.trace {
		fmt.Fprintf(&c.req, "X-Bench-Id: %d\r\n", c.base|c.seq)
	}
	if inm != "" {
		fmt.Fprintf(&c.req, "If-None-Match: %s\r\n", inm)
	}
	if body != nil {
		fmt.Fprintf(&c.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.req.WriteString("\r\n")
	c.req.Write(body)
	if _, err := c.c.Write(c.req.Bytes()); err != nil {
		c.close()
		return err
	}
	return nil
}

// do sends one request and reads the whole response.
func (c *conn) do(method, target, inm string, body []byte) (response, error) {
	if err := c.write(method, target, inm, body); err != nil {
		return response{}, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return response{}, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.close()
		return response{}, err
	}
	if resp.Close {
		c.close()
	}
	return response{status: resp.StatusCode, etag: resp.Header.Get("Etag"), body: c.body.Bytes()}, nil
}

// sseFrame is one "dots" event as the client read it.
type sseFrame struct {
	at   time.Time
	data []byte // owned copy
}

// stream opens GET target as a server-sent event stream and calls onFrame
// for each "dots" event, stamped when its terminating blank line was read.
// It returns when the server ends the stream with its terminal "end"
// event (or closes the response).
func (c *conn) stream(target string, onFrame func(sseFrame)) error {
	if err := c.write("GET", target, "", nil); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("stream %s: status %d", target, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			c.close()
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if event == "dots" {
				onFrame(sseFrame{at: time.Now(), data: data})
			}
			if event == "end" {
				_, err := io.Copy(io.Discard, r)
				return err
			}
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[6:]))
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimSpace(line[5:])...)
		}
	}
}

// etagVersion extracts the dot-snapshot version from a live-dots ETag
// ("d<epoch>.<version>.<cursor>"); ok is false for any other shape.
func etagVersion(etag string) (uint64, bool) {
	if len(etag) < 2 {
		return 0, false
	}
	parts := bytes.Split([]byte(etag[1:len(etag)-1]), []byte("."))
	if len(parts) < 3 {
		return 0, false
	}
	v, err := strconv.ParseUint(string(parts[len(parts)-2]), 10, 64)
	return v, err == nil
}
