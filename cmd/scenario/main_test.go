package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRejectsSteeringWithoutProperty pins the outside-input check
// end to end: a dissem spec asking for steering has no property to steer
// over, so replay must exit 2 and say why rather than run it.
func TestReplayRejectsSteeringWithoutProperty(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"app": "dissem", "n": 5, "duration": "2s", "steering": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errOut.Close()
	saved := os.Stderr
	defer func() { os.Stderr = saved }()
	os.Stderr = errOut
	if code := dispatch([]string{"replay", "-spec", spec}); code != 2 {
		t.Fatalf("replay exited %d, want 2", code)
	}
	msg, err := os.ReadFile(errOut.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "dissem defines none") {
		t.Fatalf("stderr does not name the cause:\n%s", msg)
	}
}
