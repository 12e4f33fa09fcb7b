package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"

	"avmem"
)

func writePeersFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// freeLoopbackAddrs returns n distinct loopback addresses on ports the
// kernel has just reported free: each listens on port 0 and reads the
// port, and all close once every port is read. A fixed port inside the
// ephemeral range (32768–60999 on Linux) can be held at any time by an
// outbound connection's local end.
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("no free loopback port: %v", err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func TestLoadPeers(t *testing.T) {
	path := writePeersFile(t, `# comment
127.0.0.1:4001 0.82

127.0.0.1:4002 0.31
`)
	peers, monitor, err := loadPeers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %v", peers)
	}
	if av, ok := monitor["127.0.0.1:4001"]; !ok || av != 0.82 {
		t.Errorf("monitor entry = (%v,%v)", av, ok)
	}
}

func TestLoadPeersErrors(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"no space", "127.0.0.1:4001\n"},
		{"bad availability", "127.0.0.1:4001 nine\n"},
		{"availability out of range", "127.0.0.1:4001 1.4\n"},
		{"empty", "# nothing\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writePeersFile(t, tc.content)
			if _, _, err := loadPeers(path); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	if _, _, err := loadPeers("/does/not/exist"); err == nil {
		t.Error("want error for missing file")
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, err := parseRange("0.85,0.95")
	if err != nil || lo != 0.85 || hi != 0.95 {
		t.Errorf("parseRange = (%v,%v,%v)", lo, hi, err)
	}
	if _, _, err := parseRange("0.85"); err == nil {
		t.Error("want error for missing comma")
	}
	if _, _, err := parseRange("x,0.5"); err == nil {
		t.Error("want error for bad lo")
	}
	if _, _, err := parseRange("0.5,y"); err == nil {
		t.Error("want error for bad hi")
	}
}

func TestWithout(t *testing.T) {
	peers := []avmem.NodeID{"a", "b", "c"}
	got := without(peers, "b")
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("without = %v", got)
	}
	if got := without(peers, "zzz"); len(got) != 3 {
		t.Errorf("without(absent) = %v", got)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("want error for missing -listen/-peers")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("want error for unknown flag")
	}
	path := writePeersFile(t, "127.0.0.1:4001 0.5\n")
	// Listening node not present in the peers file.
	if err := run([]string{"-listen", "127.0.0.1:4999", "-peers", path}); err == nil {
		t.Error("want error when self is not in the peers file")
	}
}

func TestRunAnycastEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binds TCP ports")
	}
	addrs := freeLoopbackAddrs(t, 2)
	initiator, responder := addrs[0], addrs[1]
	path := writePeersFile(t, initiator+" 0.30\n"+responder+" 0.92\n")

	// Start the high-availability responder in the background.
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", responder, "-peers", path,
			"-period", "100ms",
			"-anycast", "0.85,0.95", "-wait", "1s",
		})
	}()

	// And the initiator in the foreground: it should discover the
	// responder and deliver the anycast to it.
	err := run([]string{
		"-listen", initiator, "-peers", path,
		"-period", "100ms",
		"-anycast", "0.85,0.95", "-wait", "1500ms",
	})
	if err != nil {
		t.Fatalf("initiator: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("responder: %v", err)
	}
}
