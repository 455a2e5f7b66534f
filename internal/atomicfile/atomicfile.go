// Package atomicfile is the one way the daemon's state files are
// replaced on disk: segments, the segment manifest, the schedule and
// alert registries, the metric history and the profile artifacts. A
// crash at any instant leaves either the old file or the new one, both
// complete, never a torn mix.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces path with the concatenation of data. The bytes land in
// path+".tmp", are fsynced and closed, and only then renamed over path;
// the directory is fsynced last so the rename itself survives power
// loss. The directory fsync is best effort, because some filesystems
// reject it. Passing the content as several chunks lets a caller write
// a header and a body without first copying them into one buffer.
//
// The temp name is fixed, not random, so a store that sweeps "*.tmp"
// at open finds what a crash mid-write left behind. On any error Write
// returns, the temp file is removed and path is untouched.
func Write(path string, data ...[]byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	for _, d := range data {
		if _, err = f.Write(d); err != nil {
			f.Close()
			return err
		}
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs a directory, making the names created or renamed in
// it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
