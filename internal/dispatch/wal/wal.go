// Package wal is an append-only record log for durable queue state.
//
// The format follows the magic-code / checksummed-block / sentinel-
// error discipline of small single-purpose on-disk formats: every file
// opens with a magic number and format version, and every record is a
// fixed-layout frame
//
//	magic   uint16  per-record magic code
//	version uint8   record schema version
//	kind    uint8   caller-defined record type
//	seq     uint64  strictly increasing sequence number
//	length  uint32  payload length in bytes
//	payload []byte  caller-defined (the log never interprets it)
//	crc     uint32  CRC-32 (IEEE) over everything above
//
// in little-endian byte order. Appends are a single write syscall per
// record — no user-space buffering — so a crash can tear at most the
// final record, and Sync is a plain fsync for callers that need the
// record durable before acknowledging anything to the outside world.
//
// Replay is strict up to the first damage and forgiving about it:
// Open scans the log, hands back every intact record, and on the
// first framing violation truncates the file to the last consistent
// record boundary and reports what it dropped and why through
// RecoverInfo — a torn tail from a crash mid-append heals invisibly,
// while real corruption (a flipped checksum byte, a foreign magic
// code) still surfaces its exact sentinel for callers that want to
// alarm instead of continue.
//
// A snapshot file reuses the same envelope (header plus one
// snapshot-kind record) and is replaced atomically, so log compaction
// — write snapshot, reset log — can crash between the two steps
// without losing state: the snapshot records the sequence number it
// folds up to, and replay skips log records at or below it.
//
// Several handles — in one process or in many, on one host or over a
// shared filesystem — may append to one log. Lock serializes them
// through an advisory flock(2) on the log file; under the lock, Tail
// hands a handle the records the others appended since it last looked.
// Reset bumps a generation counter kept in the file header's last two
// bytes, so a handle whose position another handle's reset invalidated
// learns it (ErrReset) and rescans with Replay instead of misreading.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"syscall"

	"rowfuse/internal/faultpoint"
	"rowfuse/internal/resultio"
)

// Version identifies the record schema.
const Version = 1

const (
	fileMagic   uint32 = 0x52465157 // "RFQW": rowfuse queue WAL
	recordMagic uint16 = 0xA17C

	headerSize  = 8  // file magic u32 + version u16 + generation u16
	genOffset   = 6  // the generation's offset in the header
	recHeadSize = 16 // record magic u16 + version u8 + kind u8 + seq u64 + length u32
	crcSize     = 4

	// snapshotKind frames the single record of a snapshot file; the
	// kind space below it belongs to callers.
	snapshotKind uint8 = 0xFF

	// maxPayload bounds a record's declared payload length. A frame
	// claiming more is corrupt framing, not a big record: the largest
	// legitimate payload (a whole-campaign checkpoint) is a few MB.
	maxPayload = 64 << 20
)

// Sentinel errors; callers branch with errors.Is.
var (
	// ErrUnknownMagic reports a file or record whose magic code is not
	// this package's — the wrong file entirely, or overwritten bytes.
	ErrUnknownMagic = errors.New("wal: unknown magic code")
	// ErrBadVersion reports a record schema version this build cannot
	// read.
	ErrBadVersion = errors.New("wal: unsupported version")
	// ErrBadChecksum reports a record whose CRC does not match its
	// bytes: the record was damaged in place.
	ErrBadChecksum = errors.New("wal: record checksum mismatch")
	// ErrTruncated reports a record cut short by EOF — the torn tail a
	// crash mid-append leaves behind.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrBadRecord reports structurally invalid framing: an absurd
	// payload length or a sequence-number gap.
	ErrBadRecord = errors.New("wal: malformed record")
	// ErrBadSnapshot reports an unreadable snapshot file; it always
	// wraps the precise framing sentinel alongside.
	ErrBadSnapshot = errors.New("wal: bad snapshot")
	// ErrClosed reports an append to a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrReset reports, from Tail, that another handle reset the log
	// since this one last read it: the records this handle had not yet
	// seen now live in a snapshot, so it must reload that and Replay.
	ErrReset = errors.New("wal: log reset by another handle")
)

// Record is one replayed log entry.
type Record struct {
	Seq     uint64
	Kind    uint8
	Payload []byte
}

// RecoverInfo describes how an Open replay ended.
type RecoverInfo struct {
	// Err is nil after a clean scan to EOF; otherwise the sentinel
	// that stopped replay (the damaged suffix was truncated away).
	Err error
	// DroppedBytes is the length of the truncated suffix.
	DroppedBytes int64
	// Records is the number of intact records replayed.
	Records int
}

// Log is one open, appendable handle on a record log.
type Log struct {
	f   *os.File
	fd  int
	seq uint64
	// off is where this handle's view of the log ends: past the last
	// record it read or wrote. Appends land there.
	off int64
	// gen is the header generation this handle last read or wrote.
	gen uint16
	// Tail's scratch space, kept on the Log so the no-news check
	// allocates nothing.
	st     syscall.Stat_t
	genBuf [2]byte
	closed bool
}

func newLog(f *os.File) *Log { return &Log{f: f, fd: int(f.Fd()), off: headerSize} }

// Create makes a fresh log at path, failing if one already exists.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(appendHeader(nil)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write header: %w", err)
	}
	return newLog(f), nil
}

// Attach opens an existing log as one more handle on it, without
// reading it: Replay, under Lock, positions the handle.
func Attach(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return newLog(f), nil
}

// Open attaches to an existing log and replays it under the lock,
// returning the intact records and the log positioned for appending
// after the last of them. Damage ends the scan: the file is truncated
// back to the last consistent record boundary (so subsequent appends
// are well-framed) and info reports the sentinel and the dropped byte
// count. Only a structurally broken header is a hard error — there is
// no consistent prefix to recover.
func Open(path string) (*Log, []Record, RecoverInfo, error) {
	l, err := Attach(path)
	if err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	if err := l.Lock(); err != nil {
		l.f.Close()
		return nil, nil, RecoverInfo{}, err
	}
	recs, info, err := l.Replay()
	if uerr := l.Unlock(); err == nil {
		err = uerr
	}
	if err != nil {
		l.f.Close()
		return nil, nil, info, err
	}
	return l, recs, info, nil
}

// Lock takes an exclusive advisory lock on the log file, blocking
// until every other handle has released it. flock(2) locks belong to
// the open file description, so two handles conflict even inside one
// process.
func (l *Log) Lock() error {
	if l.closed {
		return ErrClosed
	}
	for {
		err := syscall.Flock(l.fd, syscall.LOCK_EX)
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return fmt.Errorf("wal: lock: %w", err)
		}
	}
}

// Unlock releases Lock.
func (l *Log) Unlock() error {
	if l.closed {
		return ErrClosed
	}
	if err := syscall.Flock(l.fd, syscall.LOCK_UN); err != nil {
		return fmt.Errorf("wal: unlock: %w", err)
	}
	return nil
}

// Replay rescans the whole log from its header and positions the
// handle after the last intact record, truncating a damaged suffix
// away as Open does. Callers hold the lock.
func (l *Log) Replay() ([]Record, RecoverInfo, error) {
	if l.closed {
		return nil, RecoverInfo{}, ErrClosed
	}
	var hdr [headerSize]byte
	n, _ := l.f.ReadAt(hdr[:], 0)
	if err := checkHeader(hdr[:n]); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("%s: %w", l.f.Name(), err)
	}
	if err := syscall.Fstat(l.fd, &l.st); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("wal: stat: %w", err)
	}
	l.gen = binary.LittleEndian.Uint16(hdr[genOffset:])
	l.off, l.seq = headerSize, 0
	return l.scan(l.st.Size)
}

// Tail returns the records other handles appended since this handle
// last read or wrote the log, truncating a damaged suffix as Replay
// does. When there are none it costs one fstat and one two-byte pread
// and allocates nothing. ErrReset means another handle reset the log
// meanwhile. Callers hold the lock.
func (l *Log) Tail() ([]Record, RecoverInfo, error) {
	if l.closed {
		return nil, RecoverInfo{}, ErrClosed
	}
	if err := syscall.Fstat(l.fd, &l.st); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("wal: stat: %w", err)
	}
	if l.st.Size < l.off {
		return nil, RecoverInfo{}, ErrReset
	}
	if _, err := syscall.Pread(l.fd, l.genBuf[:], genOffset); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("wal: read header: %w", err)
	}
	if binary.LittleEndian.Uint16(l.genBuf[:]) != l.gen {
		return nil, RecoverInfo{}, ErrReset
	}
	if l.st.Size == l.off {
		return nil, RecoverInfo{}, nil
	}
	return l.scan(l.st.Size)
}

// scan parses the records between the handle's position and size,
// advancing past the intact ones and truncating the file at the first
// damage.
func (l *Log) scan(size int64) ([]Record, RecoverInfo, error) {
	data := make([]byte, size-l.off)
	if _, err := l.f.ReadAt(data, l.off); err != nil {
		return nil, RecoverInfo{}, fmt.Errorf("wal: read: %w", err)
	}
	var (
		recs []Record
		info RecoverInfo
		pos  int
	)
	for pos < len(data) {
		rec, n, err := parseRecord(data[pos:], l.seq)
		if err != nil {
			info.Err = err
			info.DroppedBytes = int64(len(data) - pos)
			break
		}
		recs = append(recs, rec)
		l.seq = rec.Seq
		pos += n
	}
	info.Records = len(recs)
	l.off += int64(pos)
	if info.Err != nil {
		if err := l.f.Truncate(l.off); err != nil {
			return nil, info, fmt.Errorf("wal: truncate damaged suffix: %w", err)
		}
	}
	return recs, info, nil
}

// parseRecord decodes one record frame from the front of data,
// returning it and its total encoded length. prev is the previous
// record's sequence number (0 = none yet; after a compaction reset
// the first record may carry any positive seq, so continuity is only
// enforced between adjacent records).
func parseRecord(data []byte, prev uint64) (Record, int, error) {
	if len(data) < recHeadSize {
		return Record{}, 0, fmt.Errorf("%w: %d-byte frame head", ErrTruncated, len(data))
	}
	if m := binary.LittleEndian.Uint16(data[0:2]); m != recordMagic {
		return Record{}, 0, fmt.Errorf("%w: record magic %#x", ErrUnknownMagic, m)
	}
	if v := data[2]; v != Version {
		return Record{}, 0, fmt.Errorf("%w: record version %d", ErrBadVersion, v)
	}
	kind := data[3]
	seq := binary.LittleEndian.Uint64(data[4:12])
	plen := binary.LittleEndian.Uint32(data[12:16])
	if plen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: %d-byte payload length", ErrBadRecord, plen)
	}
	total := recHeadSize + int(plen) + crcSize
	if len(data) < total {
		return Record{}, 0, fmt.Errorf("%w: %d of %d bytes", ErrTruncated, len(data), total)
	}
	body := data[:recHeadSize+int(plen)]
	want := binary.LittleEndian.Uint32(data[recHeadSize+int(plen) : total])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Record{}, 0, fmt.Errorf("%w: seq %d: crc %#x vs %#x", ErrBadChecksum, seq, got, want)
	}
	if seq == 0 || (prev != 0 && seq != prev+1) {
		return Record{}, 0, fmt.Errorf("%w: seq %d after %d", ErrBadRecord, seq, prev)
	}
	return Record{Seq: seq, Kind: kind, Payload: append([]byte(nil), body[recHeadSize:]...)}, total, nil
}

// appendHeader appends a generation-0 file header to buf.
func appendHeader(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, fileMagic)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	return binary.LittleEndian.AppendUint16(buf, 0)
}

// checkHeader validates the file header at the front of data.
func checkHeader(data []byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d-byte header", ErrTruncated, len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != fileMagic {
		return fmt.Errorf("%w: file magic %#x", ErrUnknownMagic, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return fmt.Errorf("%w: file version %d", ErrBadVersion, v)
	}
	return nil
}

// encodeRecord frames one record.
func encodeRecord(kind uint8, seq uint64, payload []byte) []byte {
	buf := make([]byte, recHeadSize+len(payload)+crcSize)
	binary.LittleEndian.PutUint16(buf[0:2], recordMagic)
	buf[2] = Version
	buf[3] = kind
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(payload)))
	copy(buf[recHeadSize:], payload)
	crc := crc32.ChecksumIEEE(buf[:recHeadSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[recHeadSize+len(payload):], crc)
	return buf
}

// Append frames and writes one record, returning its sequence number.
// The write is a single syscall; durability against power loss
// additionally needs Sync.
func (l *Log) Append(kind uint8, payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if err := faultpoint.Check("wal.append"); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	seq := l.seq + 1
	buf := encodeRecord(kind, seq, payload)
	if _, err := l.f.WriteAt(buf, l.off); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.off += int64(len(buf))
	return seq, nil
}

// LastSeq returns the sequence number of the last appended (or
// replayed) record; 0 means the log is empty.
func (l *Log) LastSeq() uint64 { return l.seq }

// SkipTo makes the next append number past seq. A replayed log that a
// reset emptied knows no sequence numbers of its own; the snapshot
// that reset folded its records into does, and numbering must
// continue from there or replay would mistake new records for folded
// ones.
func (l *Log) SkipTo(seq uint64) {
	if seq > l.seq {
		l.seq = seq
	}
}

// Sync fsyncs the log.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if err := faultpoint.Check("wal.sync"); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return l.f.Sync()
}

// Reset truncates the log back to its header after a snapshot folded
// its records away, bumping the header generation first so other
// handles notice. Sequence numbers keep counting from where they
// were, so a snapshot's lastSeq stays an unambiguous cut point even
// if the reset itself is interrupted.
func (l *Log) Reset() error {
	if l.closed {
		return ErrClosed
	}
	var gen [2]byte
	binary.LittleEndian.PutUint16(gen[:], l.gen+1)
	if _, err := l.f.WriteAt(gen[:], genOffset); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := l.f.Truncate(headerSize); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.gen++
	l.off = headerSize
	return l.f.Sync()
}

// Close syncs and closes the log; further appends fail with ErrClosed.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// WriteSnapshot atomically replaces path with a snapshot envelope:
// the file header plus one checksummed record carrying payload under
// lastSeq, the last log sequence number the snapshot folds in. The
// temp-write/fsync/rename replace means a crash mid-compaction leaves
// either the old snapshot or the new one, never a torn file.
func WriteSnapshot(path string, lastSeq uint64, payload []byte) error {
	if err := faultpoint.Check("wal.snapshot"); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	buf := appendHeader(make([]byte, 0, headerSize+recHeadSize+len(payload)+crcSize))
	buf = append(buf, encodeRecord(snapshotKind, lastSeq, payload)...)
	return resultio.WriteFileAtomic(path, buf)
}

// ReadSnapshot loads a snapshot envelope. A missing file passes
// through as os.ErrNotExist; any structural damage reports
// ErrBadSnapshot wrapping the precise framing sentinel, because a
// snapshot — unlike a log tail — has no consistent prefix to fall
// back to and the caller must decide (typically: fail loudly, since
// the records it folded away are gone).
func ReadSnapshot(path string) (payload []byte, lastSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	fail := func(e error) ([]byte, uint64, error) {
		return nil, 0, fmt.Errorf("%w: %s: %w", ErrBadSnapshot, path, e)
	}
	if err := checkHeader(data); err != nil {
		return fail(err)
	}
	rec, n, err := parseRecord(data[headerSize:], 0)
	if err != nil {
		return fail(err)
	}
	if rec.Kind != snapshotKind {
		return fail(fmt.Errorf("%w: kind %d is not a snapshot", ErrBadRecord, rec.Kind))
	}
	if headerSize+n != len(data) {
		return fail(fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(data)-headerSize-n))
	}
	return rec.Payload, rec.Seq, nil
}
