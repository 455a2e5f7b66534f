package perfstore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perflog"
)

// wholeTree reads every .log file under root (or the one file root
// names) through perflog.Scan, in walk order, failing the test on a line
// that does not parse or a torn last line: what a correct writer leaves
// is whole lines that all parse, which perflog.ReadTree, skipping both,
// does not check.
func wholeTree(t *testing.T, root string) []*perflog.Entry {
	t.Helper()
	var out []*perflog.Entry
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".log") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines, err := perflog.Scan(bytes.NewReader(data), int64(len(data)), path, 0)
		if err != nil {
			return err
		}
		if len(lines.Bad) > 0 || lines.Bytes != int64(len(data)) {
			t.Errorf("%s: %d of %d bytes are whole lines; lines that do not parse: %+v", path, lines.Bytes, len(data), lines.Bad)
		}
		out = append(out, lines.Entries...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
