package index

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzWALSegment hands arbitrary bytes to recovery's segment scanner as
// one segment file — the bytes a crash, a bad disk or an attacker with
// write access leaves behind. The scanner must not panic, must not
// allocate more than four times the file's size plus 64 KiB, and must
// not report more good bytes than the file holds. Seeds: the committed
// corpus in testdata/fuzz/FuzzWALSegment and the wal-v1 fixture's
// segments.
func FuzzWALSegment(f *testing.F) {
	for _, name := range []string{segmentName(0, 1), segmentName(1, 1)} {
		seg, err := os.ReadFile(filepath.Join("testdata", "wal-v1", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	path := filepath.Join(f.TempDir(), segmentName(0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, goodBytes, err := scanSegmentFile(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if goodBytes < 0 || goodBytes > int64(len(data)) {
			t.Fatalf("good bytes %d outside a %d-byte file", goodBytes, len(data))
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+64<<10); got > limit {
			t.Fatalf("scanning %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
	})
}
