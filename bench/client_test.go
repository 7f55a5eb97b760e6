package main

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

func TestReadResponse(t *testing.T) {
	for _, tc := range []struct {
		name, wire string
		status     int
		body       string
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello", 200, "hello"},
		{"header case and padding", "HTTP/1.1 202 Accepted\r\ncontent-LENGTH:   3  \r\n\r\nabc", 202, "abc"},
		{"empty body", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 200, ""},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n", 200, "hello world"},
		{"chunked with extension and trailer", "HTTP/1.1 429 Too Many Requests\r\nTransfer-Encoding: Chunked\r\n\r\nA;x=1\r\n0123456789\r\n0\r\nX-T: 1\r\n\r\n", 429, "0123456789"},
		{"no content", "HTTP/1.1 204 No Content\r\n\r\n", 204, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A second response follows on the same connection: the reader
			// must consume exactly one.
			br := bufio.NewReader(strings.NewReader(tc.wire + "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
			status, body, err := readResponse(br, nil)
			if err != nil || status != tc.status || string(body) != tc.body {
				t.Fatalf("got %d %q %v, want %d %q", status, body, err, tc.status, tc.body)
			}
			status, body, err = readResponse(br, body[:0])
			if err != nil || status != 200 || string(body) != "ok" {
				t.Fatalf("next response: got %d %q %v", status, body, err)
			}
		})
	}
}

func TestReadResponseMalformed(t *testing.T) {
	for name, wire := range map[string]string{
		"status line":   "HTP/1.1 200 OK\r\n\r\n",
		"no framing":    "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nbody",
		"bad length":    "HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
		"bad chunk":     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"chunk no crlf": "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX\r\n0\r\n\r\n",
	} {
		if _, _, err := readResponse(bufio.NewReader(strings.NewReader(wire)), nil); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want errMalformed", name, err)
		}
	}
	if _, _, err := readResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")), nil); err == nil {
		t.Error("truncated body: no error")
	}
}
