package snap

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplaces: a successful write replaces the contents, applies
// the permission bits, and leaves no temp file behind.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	if err := os.WriteFile(path, []byte("old contents"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("contents %q, want %q", got, "new")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("permission bits %o, want 644", perm)
	}
	assertOnlyEntry(t, dir, "ckpt")
}

// TestWriteFileFailedRenameKeepsOld: when the rename cannot land (the
// target is a directory), WriteFile reports it, the old contents survive,
// and the temp file is removed.
func TestWriteFileFailedRenameKeepsOld(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(target, "old")
	if err := os.WriteFile(old, []byte("old contents"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("new"), 0o644); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	got, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old contents" {
		t.Fatalf("old file now holds %q", got)
	}
	assertOnlyEntry(t, dir, "ckpt")
}

// assertOnlyEntry fails unless dir holds exactly one entry, named name.
func assertOnlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
