// Package examples_test guards the examples against API drift. Every
// example must build: the Go program under examples/ compiles and each
// spec under scenarios/examples/ loads and validates. livecluster is
// also run: it starts real nodes on wall-clock timers over an
// in-process transport, so a change to the live-node API or its runtime
// shows here as a non-zero exit or an anycast that is not delivered.
package examples_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"avmem/internal/scenario"
)

func TestExamplesBuild(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	programs := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		programs++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			goTool, err := exec.LookPath("go")
			if err != nil {
				t.Skip("go toolchain not on PATH")
			}
			out, err := exec.Command(goTool, "build", "-o", os.DevNull, "./"+name).CombinedOutput()
			if err != nil {
				t.Errorf("example %s does not build: %v\n%s", name, err, out)
			}
		})
	}
	specs, err := filepath.Glob(filepath.Join("..", "scenarios", "examples", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range specs {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			if _, err := scenario.LoadFile(path); err != nil {
				t.Errorf("example spec does not validate: %v", err)
			}
		})
	}
	if programs == 0 || len(specs) == 0 {
		t.Errorf("found %d example programs and %d example specs, want at least one of each", programs, len(specs))
	}
}

func TestLiveclusterDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live nodes on the wall clock for about a second")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "livecluster")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./livecluster").CombinedOutput(); err != nil {
		t.Fatalf("livecluster does not build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("livecluster failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "outcome: delivered") {
		t.Errorf("livecluster printed no delivered outcome:\n%s", out)
	}
}
