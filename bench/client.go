package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one persistent keep-alive HTTP/1.1 connection driven by hand:
// requests are written pre-encoded and responses parsed by a minimal
// reader. net/http's client roughly doubles a loopback round trip, which
// would bury the serving code this benchmark exists to measure.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused response body buffer
}

// ioTimeout bounds one request/response exchange; a server that stalls
// longer is a failed operation, not a hung benchmark.
const ioTimeout = 10 * time.Second

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// roundTrip sends one pre-encoded request and reads the reply. The
// returned body aliases the connection's buffer and is valid until the
// next call.
func (c *conn) roundTrip(req []byte) (status int, body []byte, err error) {
	if err := c.send(req); err != nil {
		return 0, nil, err
	}
	return c.recv()
}

func (c *conn) send(req []byte) error {
	if err := c.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	_, err := c.c.Write(req)
	return err
}

func (c *conn) recv() (status int, body []byte, err error) {
	status, c.body, err = readResponse(c.br, c.body[:0])
	return status, c.body, err
}

var errMalformed = errors.New("malformed HTTP response")

// readResponse parses one HTTP/1.1 response with a Content-Length or
// chunked body, appending the body to dst.
func readResponse(br *bufio.Reader, dst []byte) (status int, body []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, dst, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, dst, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, dst, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	length, chunked := int64(-1), false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return status, dst, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return status, dst, fmt.Errorf("%w: header %q", errMalformed, line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case asciiEqualFold(name, "content-length"):
			length, err = strconv.ParseInt(string(value), 10, 64)
			if err != nil || length < 0 {
				return status, dst, fmt.Errorf("%w: content-length %q", errMalformed, value)
			}
		case asciiEqualFold(name, "transfer-encoding"):
			chunked = asciiEqualFold(value, "chunked")
		}
	}
	switch {
	case chunked:
		dst, err = readChunked(br, dst)
	case length >= 0:
		dst, err = readN(br, dst, int(length))
	case status == 204 || status == 304 || status/100 == 1:
		// No body by definition.
	default:
		return status, dst, fmt.Errorf("%w: no body framing", errMalformed)
	}
	return status, dst, err
}

func readN(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	start := len(dst)
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:start+n]
	_, err := io.ReadFull(br, dst[start:])
	return dst, err
}

func readChunked(br *bufio.Reader, dst []byte) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return dst, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi] // chunk extensions
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil || size < 0 {
			return dst, fmt.Errorf("%w: chunk size %q", errMalformed, line)
		}
		if size == 0 {
			// Trailer section: header lines until the blank one.
			for {
				line, err = br.ReadSlice('\n')
				if err != nil {
					return dst, err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return dst, nil
				}
			}
		}
		if dst, err = readN(br, dst, int(size)); err != nil {
			return dst, err
		}
		if line, err = br.ReadSlice('\n'); err != nil {
			return dst, err
		} else if len(bytes.TrimRight(line, "\r\n")) != 0 {
			return dst, fmt.Errorf("%w: chunk not terminated by CRLF", errMalformed)
		}
	}
}

// asciiEqualFold reports whether b equals the lower-case ASCII string s,
// ignoring case.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
