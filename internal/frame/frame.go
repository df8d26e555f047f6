// Package frame is the one envelope for every file the simulator writes in
// its own format (device-state snapshots and farm job journals): a header
// that brands and versions the file, then self-delimiting checksummed
// records.
//
//	header = magic [8]byte | version u32 LE
//	record = kind u8 | len u32 LE | payload | crc u64 LE
//	crc    = CRC64-ECMA over the kind byte and the payload
//
// Readers never trust a length before checking it against the bytes that
// remain and the caller's bound, so arbitrary input yields a typed error,
// never a panic or a giant allocation.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// HeaderLen is the size of a file header.
const HeaderLen = 8 + 4

// Typed failures. Callers map them onto their own fail-soft policy: a
// snapshot treats every one as a cache miss, a journal keeps the records
// before the first one.
var (
	// ErrMagic means the bytes do not start with the expected magic.
	ErrMagic = errors.New("frame: bad magic")
	// ErrVersion means the file was written under another format version.
	ErrVersion = errors.New("frame: version mismatch")
	// ErrTorn means the bytes end inside a header or a record.
	ErrTorn = errors.New("frame: truncated")
	// ErrTooLarge means a record length exceeds the caller's bound (on
	// read) or the 4 GiB a u32 length can express (on write).
	ErrTooLarge = errors.New("frame: record too large")
	// ErrChecksum means a record's bytes do not match its checksum.
	ErrChecksum = errors.New("frame: checksum mismatch")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// AppendHeader appends a file header to b.
func AppendHeader(b []byte, magic [8]byte, version uint32) []byte {
	b = append(b, magic[:]...)
	return binary.LittleEndian.AppendUint32(b, version)
}

// Header checks that b starts with a header carrying magic and version and
// returns the bytes after it. A prefix of a valid header is ErrTorn.
func Header(b []byte, magic [8]byte, version uint32) (rest []byte, err error) {
	if n := min(len(b), len(magic)); string(b[:n]) != string(magic[:n]) {
		return nil, ErrMagic
	}
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTorn, len(b))
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: file has v%d, want v%d", ErrVersion, v, version)
	}
	return b[HeaderLen:], nil
}

// AppendRecord appends one record to b. It fails only when the payload is
// too long for the u32 length field.
func AppendRecord(b []byte, kind byte, payload []byte) ([]byte, error) {
	if uint64(len(payload)) > math.MaxUint32 {
		return b, fmt.Errorf("%w: %d-byte payload", ErrTooLarge, len(payload))
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, checksum(kind, payload)), nil
}

// Next parses the record at the start of b, whose payload may be at most
// limit bytes, and returns it with the bytes after it. The payload aliases
// b. Empty input is ErrTorn; callers stop reading at len(b) == 0.
func Next(b []byte, limit int) (kind byte, payload, rest []byte, err error) {
	if len(b) < 5 {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte record head", ErrTorn, len(b))
	}
	kind = b[0]
	n := uint64(binary.LittleEndian.Uint32(b[1:5]))
	if limit < 0 || n > uint64(limit) {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte payload, limit %d", ErrTooLarge, n, limit)
	}
	if uint64(len(b)-5) < n+8 {
		return 0, nil, nil, fmt.Errorf("%w: record needs %d bytes, have %d", ErrTorn, 5+n+8, len(b))
	}
	payload, sum := b[5:5+n], binary.LittleEndian.Uint64(b[5+n:])
	if checksum(kind, payload) != sum {
		return 0, nil, nil, ErrChecksum
	}
	return kind, payload, b[5+n+8:], nil
}

func checksum(kind byte, payload []byte) uint64 {
	return crc64.Update(crc64.Update(0, crcTable, []byte{kind}), crcTable, payload)
}
