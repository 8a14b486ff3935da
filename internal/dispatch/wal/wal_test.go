package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rowfuse/internal/dispatch/wal"
)

// writeLog creates a log at path with n small records and returns the
// file's bytes.
func writeLog(t *testing.T, path string, n int) []byte {
	t.Helper()
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(uint8(i%3+1), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.wal")
	writeLog(t, path, 5)
	l, recs, info, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Err != nil {
		t.Fatalf("clean log reported damage: %v", info.Err)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d of 5 records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
		if want := fmt.Sprintf("payload-%d", i); string(r.Payload) != want {
			t.Fatalf("record %d: payload %q (want %q)", i, r.Payload, want)
		}
	}
	// Appends continue the sequence.
	seq, err := l.Append(9, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("append after replay: seq %d (want 6)", seq)
	}
}

// TestLogCorruptionRecovery is the crash-injection table: each way a
// log can be damaged must surface its exact sentinel and recover to
// the last consistent record boundary — replay keeps every record
// before the damage and the file is repaired so appends stay
// well-framed.
func TestLogCorruptionRecovery(t *testing.T) {
	const records = 5
	tests := []struct {
		name string
		// corrupt mutates the healthy log bytes.
		corrupt func([]byte) []byte
		wantErr error
		// wantRecords is how many records must survive.
		wantRecords int
	}{
		{
			name:        "truncated tail record",
			corrupt:     func(b []byte) []byte { return b[:len(b)-3] },
			wantErr:     wal.ErrTruncated,
			wantRecords: records - 1,
		},
		{
			name: "flipped checksum byte",
			corrupt: func(b []byte) []byte {
				b[len(b)-1] ^= 0xFF // last record's CRC
				return b
			},
			wantErr:     wal.ErrBadChecksum,
			wantRecords: records - 1,
		},
		{
			name: "flipped payload byte",
			corrupt: func(b []byte) []byte {
				b[len(b)-6] ^= 0x01 // inside the last record's payload
				return b
			},
			wantErr:     wal.ErrBadChecksum,
			wantRecords: records - 1,
		},
		{
			name: "unknown record magic",
			corrupt: func(b []byte) []byte {
				// Zero the second record's magic: the first survives.
				off := 8 + recordLen(0)
				b[off], b[off+1] = 0, 0
				return b
			},
			wantErr:     wal.ErrUnknownMagic,
			wantRecords: 1,
		},
		{
			name: "garbage appended after clean records",
			corrupt: func(b []byte) []byte {
				return append(b, []byte("not a record frame at all")...)
			},
			wantErr:     wal.ErrUnknownMagic,
			wantRecords: records,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "q.wal")
			data := tc.corrupt(writeLog(t, path, records))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, recs, info, err := wal.Open(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if !errors.Is(info.Err, tc.wantErr) {
				t.Fatalf("recover sentinel: got %v, want %v", info.Err, tc.wantErr)
			}
			if info.DroppedBytes <= 0 {
				t.Fatalf("damage reported but zero bytes dropped: %+v", info)
			}
			if len(recs) != tc.wantRecords {
				t.Fatalf("replayed %d records, want %d", len(recs), tc.wantRecords)
			}
			// The repaired log accepts appends and replays clean.
			if _, err := l.Append(7, []byte("healed")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, recs2, info2, err := wal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if info2.Err != nil {
				t.Fatalf("repaired log still damaged: %v", info2.Err)
			}
			if len(recs2) != tc.wantRecords+1 {
				t.Fatalf("after heal: %d records, want %d", len(recs2), tc.wantRecords+1)
			}
			if got := recs2[len(recs2)-1].Payload; string(got) != "healed" {
				t.Fatalf("healed record payload %q", got)
			}
		})
	}
}

// recordLen is the encoded length of writeLog's i-th record.
func recordLen(i int) int {
	return 16 + len(fmt.Sprintf("payload-%d", i)) + 4
}

func TestLogHeaderDamageIsFatal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.wal")
	data := writeLog(t, path, 2)

	// Wrong file magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wal.Open(path); !errors.Is(err, wal.ErrUnknownMagic) {
		t.Fatalf("foreign magic: got %v, want ErrUnknownMagic", err)
	}

	// Future version.
	bad = append([]byte(nil), data...)
	bad[4] = 99
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wal.Open(path); !errors.Is(err, wal.ErrBadVersion) {
		t.Fatalf("future version: got %v, want ErrBadVersion", err)
	}

	// Empty file (crash between create and header write).
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wal.Open(path); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("empty file: got %v, want ErrTruncated", err)
	}
}

func TestSnapshotRoundTripAndDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.snap")
	payload := []byte(`{"state":"everything"}`)
	if err := wal.WriteSnapshot(path, 42, payload); err != nil {
		t.Fatal(err)
	}
	got, seq, err := wal.ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("snapshot round trip: seq %d payload %q", seq, got)
	}

	// A replace overwrites, never appends.
	if err := wal.WriteSnapshot(path, 43, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, seq, err = wal.ReadSnapshot(path); err != nil || seq != 43 || string(got) != "v2" {
		t.Fatalf("snapshot replace: %q seq %d err %v", got, seq, err)
	}

	// Torn snapshot-replace: the atomic rename either happened or it
	// did not. A leftover temp file from a crash mid-replace must not
	// shadow the intact snapshot.
	if err := os.WriteFile(path+".tmp12345", []byte("torn half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, seq, err = wal.ReadSnapshot(path); err != nil || seq != 43 || string(got) != "v2" {
		t.Fatalf("snapshot with torn temp sibling: %q seq %d err %v", got, seq, err)
	}

	// In-place damage (which the atomic-replace discipline exists to
	// prevent) is loud: ErrBadSnapshot wrapping the exact framing
	// sentinel.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func([]byte) []byte
		wantRaw error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-2] }, wal.ErrTruncated},
		{"flipped byte", func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b }, wal.ErrBadChecksum},
		{"trailing garbage", func(b []byte) []byte { return append(b, 'x') }, wal.ErrBadRecord},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(append([]byte(nil), data...))
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := wal.ReadSnapshot(path)
			if !errors.Is(err, wal.ErrBadSnapshot) {
				t.Fatalf("got %v, want ErrBadSnapshot", err)
			}
			if !errors.Is(err, tc.wantRaw) {
				t.Fatalf("got %v, want wrapped %v", err, tc.wantRaw)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Missing file passes through untouched for callers that treat
	// "no snapshot yet" as a normal first boot.
	if _, _, err := wal.ReadSnapshot(filepath.Join(dir, "absent.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: got %v, want os.ErrNotExist", err)
	}
}

func TestLogResetKeepsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.wal")
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(1, []byte("post-compaction"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("seq after reset: %d (want 4 — compaction must not reuse sequence numbers)", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, info, err := wal.Open(path)
	if err != nil || info.Err != nil {
		t.Fatalf("reopen: %v / %v", err, info.Err)
	}
	if len(recs) != 1 || recs[0].Seq != 4 {
		t.Fatalf("after reset: %d records, first seq %d", len(recs), recs[0].Seq)
	}
}

// TestLogTailAcrossHandles drives two handles on one log the way two
// processes share a queue journal: each sees the other's appends
// through Tail, a reset by one surfaces as ErrReset in the other, and
// the no-news check allocates nothing.
func TestLogTailAcrossHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.wal")
	a, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _, _, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	locked := func(l *wal.Log, f func()) {
		t.Helper()
		if err := l.Lock(); err != nil {
			t.Fatal(err)
		}
		f()
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	locked(a, func() {
		for i := 0; i < 2; i++ {
			if _, err := a.Append(1, []byte("from a")); err != nil {
				t.Fatal(err)
			}
		}
	})
	locked(b, func() {
		recs, info, err := b.Tail()
		if err != nil || info.Err != nil || len(recs) != 2 || recs[1].Seq != 2 {
			t.Fatalf("tail: %d records, %v / %v", len(recs), err, info.Err)
		}
		if seq, err := b.Append(1, []byte("from b")); err != nil || seq != 3 {
			t.Fatalf("b appended seq %d (%v), want 3", seq, err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := b.Tail(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Tail with nothing new allocates %v times", allocs)
		}
	})
	locked(a, func() {
		recs, _, err := a.Tail()
		if err != nil || len(recs) != 1 || string(recs[0].Payload) != "from b" {
			t.Fatalf("a's tail: %d records, %v", len(recs), err)
		}
		if err := a.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Append(1, []byte("after reset")); err != nil {
			t.Fatal(err)
		}
	})
	locked(b, func() {
		if _, _, err := b.Tail(); !errors.Is(err, wal.ErrReset) {
			t.Fatalf("tail after another handle's reset: %v, want ErrReset", err)
		}
		recs, _, err := b.Replay()
		if err != nil || len(recs) != 1 || recs[0].Seq != 4 {
			t.Fatalf("replay after reset: %d records, %v", len(recs), err)
		}
	})
}
