package registry

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFileFailedWriteKeepsOld: a write that fails midway leaves
// the previous file byte-identical and no temp entry behind.
func TestReplaceFileFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, currentFile)
	old := []byte("v000001\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	errMidway := errors.New("write failed midway")
	err := replaceFile(path, func(w io.Writer) (int64, error) {
		n, err := io.WriteString(w, "v000002 and")
		if err == nil {
			err = errMidway
		}
		return int64(n), err
	})
	if !errors.Is(err, errMidway) {
		t.Fatalf("replaceFile = %v, want the write's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("%s holds %q after a failed write, want %q", currentFile, got, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d entries after a failed write, want only %s", len(entries), currentFile)
	}
}
