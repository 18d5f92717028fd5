package server

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// This file is the memcached text-protocol command parser: one request line
// (already stripped of its CRLF terminator) in, one Command out. The parser
// is deliberately allocation-light — parsed keys alias the input line, and
// the caller owns copying them before the line buffer is reused — and is
// pinned by FuzzParseCommand: it must never panic, and a key containing a
// space, CR, LF, or NUL must never survive parsing (an embedded CR/LF in a
// key would desynchronize the framing of every later reply on the
// connection).

// MaxKeyLen is the protocol key-length cap (memcached's 250; the engine
// accepts up to 255, so every protocol-legal key is engine-legal).
const MaxKeyLen = 250

// MaxDataLen is the protocol cap on a set's data block. The setblock codec
// stores value lengths in a uint16, so nothing past 64 KiB could ever be
// admitted; a parsed byte count above this cap is rejected before the
// server commits to swallowing the block.
const MaxDataLen = 64 << 10

// Kind discriminates the protocol verbs the server implements.
type Kind uint8

const (
	// KindGet is `get <key>+`: multi-key lookup.
	KindGet Kind = iota
	// KindGets is `gets <key>+`: multi-key lookup with cas tokens.
	KindGets
	// KindSet is `set <key> <flags> <exptime> <bytes> [noreply]` followed
	// by a <bytes>-long data block.
	KindSet
	// KindDelete is `delete <key> [noreply]`.
	KindDelete
	// KindStats is `stats`.
	KindStats
	// KindQuit is `quit`: the client is done; close the connection.
	KindQuit
	// KindVersion is `version`.
	KindVersion
)

// Command is one parsed request line. Keys alias the parsed line and are
// invalidated by the next read into that buffer.
type Command struct {
	Kind    Kind
	Keys    [][]byte // get/gets: all keys; set/delete: exactly one
	Flags   uint32   // set: opaque client flags, stored with the item
	Exptime int64    // set: accepted and ignored (documented; see doc.go)
	Bytes   int      // set: data-block length
	Noreply bool     // set/delete: suppress the reply
}

// ErrUnknownCommand reports a well-formed line whose verb the server does
// not implement; the protocol answer is "ERROR\r\n" and the connection
// stays usable.
var ErrUnknownCommand = errors.New("unknown command")

// ClientError is a malformed request line: the protocol answer is
// "CLIENT_ERROR <msg>\r\n" and the connection stays usable.
type ClientError struct{ Msg string }

func (e *ClientError) Error() string { return "client error: " + e.Msg }

func clientErrorf(format string, args ...any) error {
	return &ClientError{Msg: fmt.Sprintf(format, args...)}
}

// maxArgs is the most arguments any verb but get/gets takes (set with
// noreply); their tokens go to an array of one more, so a longer line is
// seen to be too long without being tokenised to its end.
const maxArgs = 5

// ParseCommand parses one request line (no trailing CRLF) into cmd,
// reusing cmd.Keys' backing array: a get's keys are tokenised straight into
// it and every other verb's few arguments into an array on the stack, so a
// parse allocates nothing once cmd.Keys has grown to the widest get seen. It
// returns ErrUnknownCommand for unimplemented verbs, a *ClientError for
// malformed lines, and nil on success; on error cmd's contents are
// unspecified.
func ParseCommand(line []byte, cmd *Command) error {
	*cmd = Command{Keys: cmd.Keys[:0]}
	// Reporting an embedded control byte (CR, LF, NUL) before anything else,
	// rather than passing it through, is what keeps a hostile key from
	// breaking reply framing.
	if bytes.ContainsAny(line, "\r\n\x00") {
		return clientErrorf("control characters in command line")
	}
	verb, rest := nextField(line)
	if verb == nil {
		return ErrUnknownCommand
	}
	if bytes.Equal(verb, []byte("get")) || bytes.Equal(verb, []byte("gets")) {
		cmd.Kind = KindGet
		if len(verb) == 4 {
			cmd.Kind = KindGets
		}
		for {
			var k []byte
			if k, rest = nextField(rest); k == nil {
				break
			}
			if err := checkKey(k); err != nil {
				return err
			}
			cmd.Keys = append(cmd.Keys, k)
		}
		if len(cmd.Keys) == 0 {
			return clientErrorf("bad command line format")
		}
		return nil
	}
	var argv [maxArgs + 1][]byte
	args := argv[:0]
	for len(args) < len(argv) {
		var f []byte
		if f, rest = nextField(rest); f == nil {
			break
		}
		args = append(args, f)
	}
	switch {
	case bytes.Equal(verb, []byte("set")):
		cmd.Kind = KindSet
		if len(args) == 5 && bytes.Equal(args[4], []byte("noreply")) {
			cmd.Noreply = true
			args = args[:4]
		}
		if len(args) != 4 {
			return clientErrorf("bad command line format")
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		flags, err1 := strconv.ParseUint(string(args[1]), 10, 32)
		exp, err2 := strconv.ParseInt(string(args[2]), 10, 64)
		n, err3 := strconv.ParseUint(string(args[3]), 10, 31)
		if err1 != nil || err2 != nil || err3 != nil {
			return clientErrorf("bad command line format")
		}
		if n > MaxDataLen {
			return clientErrorf("bad data chunk")
		}
		cmd.Keys = append(cmd.Keys, args[0])
		cmd.Flags = uint32(flags)
		cmd.Exptime = exp
		cmd.Bytes = int(n)
		return nil
	case bytes.Equal(verb, []byte("delete")):
		cmd.Kind = KindDelete
		if len(args) == 2 && bytes.Equal(args[1], []byte("noreply")) {
			cmd.Noreply = true
			args = args[:1]
		}
		if len(args) != 1 {
			return clientErrorf("bad command line format")
		}
		if err := checkKey(args[0]); err != nil {
			return err
		}
		cmd.Keys = append(cmd.Keys, args[0])
		return nil
	case bytes.Equal(verb, []byte("stats")):
		cmd.Kind = KindStats
		if len(args) != 0 {
			// Sub-statistics (`stats items`, ...) are not implemented.
			return ErrUnknownCommand
		}
		return nil
	case bytes.Equal(verb, []byte("quit")):
		cmd.Kind = KindQuit
		if len(args) != 0 {
			return clientErrorf("bad command line format")
		}
		return nil
	case bytes.Equal(verb, []byte("version")):
		cmd.Kind = KindVersion
		if len(args) != 0 {
			return clientErrorf("bad command line format")
		}
		return nil
	}
	return ErrUnknownCommand
}

// nextField returns the first space-delimited field of line and what
// follows it, or a nil field when only spaces (or nothing) remain. Runs of
// spaces collapse, matching memcached's tokenizer.
func nextField(line []byte) (field, rest []byte) {
	line = bytes.TrimLeft(line, " ")
	if len(line) == 0 {
		return nil, nil
	}
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i:]
	}
	return line, nil
}

// checkKey enforces the protocol key contract: 1..MaxKeyLen bytes of
// printable non-space ASCII-compatible bytes. ParseCommand already excludes
// space/CR/LF/NUL; this adds the remaining control bytes and the length
// caps.
func checkKey(key []byte) error {
	if len(key) == 0 {
		return clientErrorf("bad command line format")
	}
	if len(key) > MaxKeyLen {
		return clientErrorf("key too long (%d > %d)", len(key), MaxKeyLen)
	}
	for _, b := range key {
		if b < 0x21 || b == 0x7f {
			return clientErrorf("invalid key byte 0x%02x", b)
		}
	}
	return nil
}
