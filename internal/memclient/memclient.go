// Package memclient is a minimal memcached-text-protocol client for the
// repository's own serving layer: the chaos harness (internal/chaos) and
// the server test suites drive internal/server through it. It supports the server's verb subset, explicit pipelining
// (Queue* then Flush then Read*), and nothing more — it is a harness
// component, not a production client.
package memclient

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// Client speaks the protocol over one connection. Not safe for concurrent
// use; loopback harnesses run one Client per connection goroutine.
type Client struct {
	r *bufio.Reader
	w *bufio.Writer
}

// New wraps an established connection (anything bidirectional: net.Conn,
// net.Pipe end).
func New(rw io.ReadWriter) *Client {
	return &Client{
		r: bufio.NewReaderSize(rw, 16<<10),
		w: bufio.NewWriterSize(rw, 16<<10),
	}
}

// QueueSet appends a set request to the pipeline.
func (c *Client) QueueSet(key, data []byte, flags uint32, noreply bool) {
	fmt.Fprintf(c.w, "set %s %d 0 %d", key, flags, len(data))
	if noreply {
		c.w.WriteString(" noreply")
	}
	c.w.WriteString("\r\n")
	c.w.Write(data)
	c.w.WriteString("\r\n")
}

// QueueGet appends a (multi-key) get request to the pipeline; withCas
// makes it a gets.
func (c *Client) QueueGet(withCas bool, keys ...[]byte) {
	if withCas {
		c.w.WriteString("gets")
	} else {
		c.w.WriteString("get")
	}
	for _, k := range keys {
		c.w.WriteByte(' ')
		c.w.Write(k)
	}
	c.w.WriteString("\r\n")
}

// QueueDelete appends a delete request to the pipeline.
func (c *Client) QueueDelete(key []byte, noreply bool) {
	c.w.WriteString("delete ")
	c.w.Write(key)
	if noreply {
		c.w.WriteString(" noreply")
	}
	c.w.WriteString("\r\n")
}

// QueueLine appends a raw request line (tests exercise malformed input
// this way).
func (c *Client) QueueLine(line string) {
	c.w.WriteString(line)
	c.w.WriteString("\r\n")
}

// Flush sends every queued request.
func (c *Client) Flush() error { return c.w.Flush() }

// readLine returns the next reply line without its CRLF.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// ReadStatus reads one status-line reply (STORED, DELETED, ERROR,
// CLIENT_ERROR ..., SERVER_ERROR ...).
func (c *Client) ReadStatus() (string, error) {
	line, err := c.readLine()
	return string(line), err
}

// Value is one VALUE reply of a get/gets.
type Value struct {
	Key   []byte
	Flags uint32
	Cas   uint64 // gets only
	Data  []byte
}

// ReadValues consumes one get/gets reply: zero or more VALUE blocks then
// END, invoking f per value (f may be nil). Any other reply line — the
// server answering an error at this pipeline position — is returned as an
// error carrying the line.
func (c *Client) ReadValues(f func(v Value)) (n int, err error) {
	for {
		line, err := c.readLine()
		if err != nil {
			return n, err
		}
		if bytes.Equal(line, []byte("END")) {
			return n, nil
		}
		fields := bytes.Fields(line)
		if len(fields) < 4 || !bytes.Equal(fields[0], []byte("VALUE")) {
			return n, fmt.Errorf("memclient: unexpected reply %q", line)
		}
		flags, err1 := strconv.ParseUint(string(fields[2]), 10, 32)
		size, err2 := strconv.ParseUint(string(fields[3]), 10, 31)
		var cas uint64
		var err3 error
		if len(fields) == 5 {
			cas, err3 = strconv.ParseUint(string(fields[4]), 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil || len(fields) > 5 {
			return n, fmt.Errorf("memclient: bad VALUE line %q", line)
		}
		v := Value{
			Key:   append([]byte(nil), fields[1]...),
			Flags: uint32(flags),
			Cas:   cas,
			Data:  make([]byte, size),
		}
		if _, err := io.ReadFull(c.r, v.Data); err != nil {
			return n, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(c.r, crlf[:]); err != nil {
			return n, err
		}
		if crlf[0] != '\r' || crlf[1] != '\n' {
			return n, fmt.Errorf("memclient: value block not CRLF-terminated")
		}
		n++
		if f != nil {
			f(v)
		}
	}
}

// Set stores key=data synchronously (queue, flush, read the status).
func (c *Client) Set(key, data []byte, flags uint32) error {
	c.QueueSet(key, data, flags, false)
	if err := c.Flush(); err != nil {
		return err
	}
	status, err := c.ReadStatus()
	if err != nil {
		return err
	}
	if status != "STORED" {
		return fmt.Errorf("memclient: set %s: %s", key, status)
	}
	return nil
}

// Get fetches one key synchronously, reporting (data, flags, found).
func (c *Client) Get(key []byte) (data []byte, flags uint32, found bool, err error) {
	c.QueueGet(false, key)
	if err := c.Flush(); err != nil {
		return nil, 0, false, err
	}
	n, err := c.ReadValues(func(v Value) { data, flags = v.Data, v.Flags })
	return data, flags, n > 0, err
}

// Delete tombstones one key synchronously.
func (c *Client) Delete(key []byte) error {
	c.QueueDelete(key, false)
	if err := c.Flush(); err != nil {
		return err
	}
	status, err := c.ReadStatus()
	if err != nil {
		return err
	}
	if status != "DELETED" {
		return fmt.Errorf("memclient: delete %s: %s", key, status)
	}
	return nil
}

// Stats fetches the stats verb's counters as a name → value map.
func (c *Client) Stats() (map[string]uint64, error) {
	c.QueueLine("stats")
	if err := c.Flush(); err != nil {
		return nil, err
	}
	stats := make(map[string]uint64)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return stats, nil
		}
		fields := bytes.Fields(line)
		if len(fields) != 3 || !bytes.Equal(fields[0], []byte("STAT")) {
			return nil, fmt.Errorf("memclient: unexpected stats reply %q", line)
		}
		v, err := strconv.ParseUint(string(fields[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("memclient: bad stats value %q", line)
		}
		stats[string(fields[1])] = v
	}
}

// Quit sends quit (the server closes the connection).
func (c *Client) Quit() error {
	c.QueueLine("quit")
	return c.Flush()
}
