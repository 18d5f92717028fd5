package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the command once and pins its exit statuses: 0 for a
// run that passed, 2 with the usage on stderr (and nothing on stdout) for
// every usage error — the flag spellings subcommands replaced among them —
// and that no command leaves a file in its working directory.
func TestExitStatus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "nemobench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const top = "usage: nemobench <command>"
	cases := []struct {
		args   string
		status int
		stderr string // substring stderr must hold
		usage  string // the usage line stderr must hold, for status 2
	}{
		{"list", 0, "", ""},
		{"exp tab6 -scale small", 0, "", ""},
		{"exp -scale small tab6", 0, "", ""},
		{"compare -scale small -engines log -shards 1 -ops 2000", 0, "", ""},
		{"chaos -scenario slow-reads -ops 400", 0, "", ""},
		{"compare -h", 0, "-setfrac", "usage: nemobench compare"},

		{"", 2, "", top},
		{"bogus", 2, `unknown command "bogus"`, top},
		{"-compare", 2, `unknown command "-compare"`, top},
		{"-chaos", 2, `unknown command "-chaos"`, top},
		{"-exp fig12a", 2, `unknown command "-exp"`, top},
		{"-all", 2, `unknown command "-all"`, top},
		{"-list", 2, `unknown command "-list"`, top},
		{"list extra", 2, "takes 0 positional arguments", "usage: nemobench list"},
		{"exp", 2, "takes 1 positional arguments", "usage: nemobench exp"},
		{"exp nope", 2, `unknown experiment "nope"`, "usage: nemobench exp"},
		{"exp tab6 -notime", 2, "not defined: -notime", "usage: nemobench exp"},
		{"all -bogus", 2, "not defined: -bogus", "usage: nemobench all"},
		{"compare -shards x", 2, `bad shard count "x"`, "usage: nemobench compare"},
		{"compare -shards 0", 2, `bad shard count "0"`, "usage: nemobench compare"},
		{"compare -engines nemo,bogus", 2, "unknown engines [bogus]", "usage: nemobench compare"},
		{"compare -device tape:x", 2, "unknown device spec", "usage: nemobench compare"},
		{"compare -workers 2", 2, "not defined: -workers", "usage: nemobench compare"},
		{"compare -async", 2, "not defined: -async", "usage: nemobench compare"},
		{"compare -batch 32", 2, "not defined: -batch", "usage: nemobench compare"},
		{"chaos -async", 2, "not defined: -async", "usage: nemobench chaos"},
		{"chaos -shards x", 2, `bad shard count "x"`, "usage: nemobench chaos"},
		{"chaos -scenario nope", 2, `unknown scenario "nope"`, "usage: nemobench chaos"},
		{"chaos -json out.json", 2, "not defined: -json", "usage: nemobench chaos"},
		{"exp tab3 -scale tiny", 2, `unknown scale "tiny" (small, medium or large)`, "usage: nemobench exp"},
		{"exp tab3 -scale small -ops -5", 2, "negative request count -5", "usage: nemobench exp"},

		// A run that failed is not a usage error: 16 data zones do not split
		// into 3 shards.
		{"chaos -shards 3", 1, "chaos failed:", ""},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(bin, strings.Fields(tc.args)...)
			cmd.Dir = t.TempDir()
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			status := 0
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				status = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if status != tc.status {
				t.Errorf("exit status %d, want %d\nstderr: %s", status, tc.status, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.stderr) || !strings.Contains(stderr.String(), tc.usage) {
				t.Errorf("stderr lacks %q or %q:\n%s", tc.stderr, tc.usage, &stderr)
			}
			if (status == 0) != (stdout.Len() > 0) && tc.args != "compare -h" {
				t.Errorf("status %d with %d bytes on stdout:\n%s", status, stdout.Len(), &stdout)
			}
			if left, _ := os.ReadDir(cmd.Dir); len(left) > 0 {
				t.Errorf("left %d files behind, first %s", len(left), left[0].Name())
			}
		})
	}
}
