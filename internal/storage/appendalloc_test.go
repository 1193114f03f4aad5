package storage

import (
	"testing"
)

// TestAppendAllocsWithoutSink: an Append with no replication sink installed
// copies nothing for replication. What a 64-key append allocates is the
// pooled record buffer's return to its pool and the pending list's amortized
// growth — at most two allocations per call in either key mode.
func TestAppendAllocsWithoutSink(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	u64 := make([]uint64, 64)
	for i := range u64 {
		u64[i] = uint64(i) * 1e9
	}
	strs := strKeysOf(u64)
	for _, strMode := range []bool{false, true} {
		e := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode})
		appendOnce := func() {
			var err error
			if strMode {
				err = e.AppendStringBatch(strs)
			} else {
				err = e.AppendBatch(u64)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		appendOnce() // warm the record-buffer pool
		if n := testing.AllocsPerRun(200, appendOnce); n > 2 {
			t.Errorf("strings=%v: a 64-key append with no sink costs %.1f allocations, want at most 2", strMode, n)
		}
		e.Close()
	}
}
