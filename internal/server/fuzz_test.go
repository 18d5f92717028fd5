package server_test

import (
	"testing"

	"nemo/internal/server"
)

// FuzzParseCommand fuzzes the memcached-text-protocol command parser:
// arbitrary request lines must parse or be rejected with the typed protocol
// errors — never a panic, and never a Command that violates the wire
// invariants. The load-bearing one is key hygiene: a key containing a space, CR, LF, NUL,
// or any other control byte must never survive parsing, because such a key
// echoed into a VALUE reply line would desynchronize the connection's
// framing.
func FuzzParseCommand(f *testing.F) {
	seeds := []string{
		"get foo",
		"get a b c",
		"gets foo bar",
		"set key 7 0 5",
		"set key 7 0 5 noreply",
		"set key 4294967295 -1 65536",
		"delete key",
		"delete key noreply",
		"stats",
		"quit",
		"version",
		"",
		"   ",
		"get",
		"set k 0 0",
		"set k notanum 0 3",
		"set k 0 0 3 garbage",
		"get a\rb",      // CR embedded in a key
		"get a\nb",      // LF embedded in a key
		"get \x00key",   // NUL
		"get k\x7fey",   // DEL
		"get key\tname", // TAB
		"get  double  spaces ",
		"bogus command line",
		"set " + string(make([]byte, 300)) + " 0 0 1",
		"get \xff\xfe\xfd", // high bytes are legal key material
		"delete a b",
		"stats items",
		"set k 0 0 99999999999999999999", // overflows int
		"set k 0 0 -1",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var cmd server.Command
		err := server.ParseCommand(line, &cmd)
		if err != nil {
			// Rejected lines must carry one of the two typed protocol
			// errors (the connection handler maps them to ERROR /
			// CLIENT_ERROR replies).
			if _, ok := err.(*server.ClientError); !ok && err != server.ErrUnknownCommand {
				t.Fatalf("ParseCommand(%q) returned untyped error %v", line, err)
			}
			return
		}
		for _, k := range cmd.Keys {
			if len(k) == 0 || len(k) > server.MaxKeyLen {
				t.Fatalf("ParseCommand(%q) let through key of %d bytes", line, len(k))
			}
			for _, b := range k {
				if b < 0x21 || b == 0x7f {
					t.Fatalf("ParseCommand(%q) let through key byte 0x%02x", line, b)
				}
			}
		}
		switch cmd.Kind {
		case server.KindGet, server.KindGets:
			if len(cmd.Keys) == 0 {
				t.Fatalf("ParseCommand(%q): get with no keys", line)
			}
			if cmd.Noreply {
				t.Fatalf("ParseCommand(%q): noreply on a get", line)
			}
		case server.KindSet:
			if len(cmd.Keys) != 1 {
				t.Fatalf("ParseCommand(%q): set with %d keys", line, len(cmd.Keys))
			}
			if cmd.Bytes < 0 || cmd.Bytes > server.MaxDataLen {
				t.Fatalf("ParseCommand(%q): set bytes %d out of range", line, cmd.Bytes)
			}
		case server.KindDelete:
			if len(cmd.Keys) != 1 {
				t.Fatalf("ParseCommand(%q): delete with %d keys", line, len(cmd.Keys))
			}
		case server.KindStats, server.KindQuit, server.KindVersion:
			if len(cmd.Keys) != 0 || cmd.Noreply {
				t.Fatalf("ParseCommand(%q): bare verb carrying keys/noreply", line)
			}
		default:
			t.Fatalf("ParseCommand(%q): unknown kind %d", line, cmd.Kind)
		}
	})
}
