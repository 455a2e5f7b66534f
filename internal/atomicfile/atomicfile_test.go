package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("old contents\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("head|"), nil, []byte("body\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "head|body\n" {
		t.Fatalf("file holds %q, want the chunks concatenated", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after a successful replace (stat err %v)", err)
	}
}

// TestWriteFailureLeavesOldBytesAndNoTemp: a replace that fails must
// leave the destination as it was and no "<name>.tmp" behind — nothing
// sweeps a profile directory, so a stranded temp file would stay for
// good.
func TestWriteFailureLeavesOldBytesAndNoTemp(t *testing.T) {
	t.Run("rename onto a non-empty directory", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state")
		if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new")); err == nil {
			t.Fatal("Write replaced a non-empty directory")
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("failed Write left its temp file behind (stat err %v)", err)
		}
	})
	t.Run("regular file keeps its old bytes", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.json")
		if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		// A directory squatting on the temp name makes the replace fail
		// before any byte is written.
		if err := os.MkdirAll(filepath.Join(path+".tmp", "child"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new\n")); err == nil {
			t.Fatal("Write succeeded with its temp name taken by a directory")
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "old\n" {
			t.Fatalf("failed replace changed the file to %q", got)
		}
	})
}
