package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mpeg"
)

func TestSaveAndLoadDirectory(t *testing.T) {
	dir := t.TempDir()
	c := NewCatalog()
	c.Add(mpeg.Generate("alpha", mpeg.StreamConfig{Duration: 2 * time.Second, Seed: 1}))
	c.Add(mpeg.Generate("beta", mpeg.StreamConfig{Duration: 3 * time.Second, Seed: 2}))
	if err := c.SaveTo(dir); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadDirectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.List(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("loaded %v", got)
	}
	orig, _ := c.Get("alpha")
	copy2, _ := loaded.Get("alpha")
	if orig.TotalFrames() != copy2.TotalFrames() {
		t.Fatal("loaded movie differs from saved")
	}
	for i := range orig.TotalFrames() {
		if orig.Frame(i) != copy2.Frame(i) {
			t.Fatalf("loaded movie's frame %d differs from saved", i)
		}
	}
}

func TestLoadDirectoryIgnoresOtherFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	c.Add(mpeg.Generate("only", mpeg.StreamConfig{Duration: time.Second, Seed: 1}))
	if err := c.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDirectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.movies) != 1 || !loaded.Has("only") {
		t.Fatalf("loaded %v", loaded.List())
	}
}

func TestLoadDirectoryErrors(t *testing.T) {
	if _, err := LoadDirectory(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad"+MovieFileExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDirectory(dir); err == nil {
		t.Fatal("corrupt movie file accepted")
	}
}
