package persist

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// WriteFileAtomic replaces the file at path with what write produces: the
// bytes go to path+".tmp", are synced and renamed over path, and the
// directory is synced so that the rename is on disk before the caller's next
// step (compaction renames a base snapshot and only then cuts the WAL down
// to what that snapshot lacks). A reader, or a crash at any moment, meets the
// previous file or the new one, never part of either. When write or any step
// up to the rename fails, path is untouched and the temp file is removed; an
// error from the directory sync alone arrives with the new file in place.
// Callers serialize their writes to one path.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after the checked one is harmless
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir flushes a directory's entries. Windows cannot flush a directory
// handle, and its rename is journaled without it.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
