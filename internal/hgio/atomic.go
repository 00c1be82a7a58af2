package hgio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// writeAtomic writes a file atomically: write streams the payload into a
// temporary file in the target directory, which is fsynced, closed, and
// renamed over path — a crash mid-write never leaves a torn file at path.
// Both file writers (.hgb graphs and .hgx corpus snapshots) go through
// here.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("hgio: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("hgio: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("hgio: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("hgio: %w", err)
	}
	return nil
}
