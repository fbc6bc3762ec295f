package snap

import (
	"os"
	"path/filepath"
)

// WriteFile durably replaces the file at path with data: it writes a temp
// file in path's directory, syncs and closes it, gives it permission bits
// perm, and renames it over path. A crash leaves the old file or the new
// one, never a torn mix. On failure the temp file is removed, the old file
// is untouched, and the error is returned.
func WriteFile(path string, data []byte, perm os.FileMode) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // already closed when only the rename failed
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Chmod(perm); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
