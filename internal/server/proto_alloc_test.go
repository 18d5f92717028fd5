package server_test

import (
	"strings"
	"testing"

	"nemo/internal/server"
)

// TestParseCommandAllocations pins the parser's steady state: once cmd.Keys
// has grown to the widest get, parsing a request line allocates nothing —
// keys alias the line and land in cmd.Keys' reused backing array, and the
// other verbs' arguments are tokenised on the stack.
func TestParseCommandAllocations(t *testing.T) {
	var keys []string
	for i := 0; i < 16; i++ {
		keys = append(keys, "key-0123456789abcdef-"+strings.Repeat("x", i))
	}
	lines := map[string][]byte{
		"get (16 keys)": []byte("get " + strings.Join(keys, " ")),
		"set":           []byte("set key-0123456789abcdef 4294967295 0 200"),
		"set noreply":   []byte("set key-0123456789abcdef 7 0 200 noreply"),
		"delete":        []byte("delete key-0123456789abcdef"),
	}
	var cmd server.Command
	for name, line := range lines {
		parse := func() {
			if err := server.ParseCommand(line, &cmd); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		parse() // grows cmd.Keys once
		// AllocsPerRun counts the whole process, and connection goroutines of
		// the tests that ran before this one may still be winding down: they
		// can only add, so one clean measurement out of three is proof.
		allocs := testing.AllocsPerRun(200, parse)
		for try := 0; try < 2 && allocs != 0; try++ {
			allocs = testing.AllocsPerRun(200, parse)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per parse, want 0", name, allocs)
		}
	}
	if err := server.ParseCommand(lines["get (16 keys)"], &cmd); err != nil || len(cmd.Keys) != 16 {
		t.Fatalf("16-key get parsed to %d keys, err %v", len(cmd.Keys), err)
	}
}
