// Package wire implements the binary encoding used on every datagram in the
// system: low-level append/consume primitives plus the typed VoD protocol
// messages exchanged between clients and servers (video frames, flow-control
// requests, VCR operations, session management and inter-server state sync).
//
// Encoding is hand-rolled rather than reflective (gob/json) because video
// frames are the hot path — one message per frame at 30 frames/s per client,
// exactly as in the paper's prototype — and because a fixed layout makes the
// formats documentable and testable.
//
// All integers are big-endian. Variable-length fields carry a 16-bit or
// 32-bit length prefix as noted on each Append function.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a buffer ends before a field completes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTrailing is returned by decoders when bytes remain after the message.
var ErrTrailing = errors.New("wire: trailing bytes after message")

// AppendU8 appends a byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a big-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends a big-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// appendI64 appends a big-endian int64 (two's complement).
func appendI64(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

// appendBool appends a bool as one byte (0 or 1).
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a 32-bit length prefix followed by v.
func AppendBytes(b, v []byte) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// stringSize is the encoded length of s as AppendString writes it.
func stringSize(s string) int { return 2 + len(s) }

// AppendString appends a 16-bit length prefix followed by the string bytes.
// It panics if the string exceeds 65535 bytes: strings on the wire are
// identifiers (addresses, group names, movie IDs), never bulk data.
func AppendString(b []byte, s string) []byte {
	if len(s) > 0xFFFF {
		panic(fmt.Sprintf("wire: string field of %d bytes", len(s)))
	}
	b = AppendU16(b, uint16(len(s)))
	return append(b, s...)
}

// Reader consumes a buffer field by field. The first decoding error sticks;
// subsequent reads return zero values, so decoders can read an entire
// message and check Err once (the "handle errors once" idiom).
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.b) }

// Done returns nil when the buffer is fully consumed without errors,
// ErrTrailing when bytes remain, or the sticky error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.b))
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrTruncated
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 consumes a big-endian uint16.
func (r *Reader) U16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// i64 consumes a big-endian int64.
func (r *Reader) i64() int64 { return int64(r.U64()) }

// Bool consumes one byte as a bool; any nonzero value is true.
func (r *Reader) bool() bool { return r.U8() != 0 }

// Rest consumes and returns all remaining bytes (possibly empty). The
// returned slice aliases the underlying buffer; callers that retain it
// must copy.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	v := r.b
	r.b = nil
	return v
}

// Bytes consumes a 32-bit length prefix and that many bytes. The returned
// slice aliases the underlying buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint32(len(r.b)) < n {
		r.err = ErrTruncated
		return nil
	}
	return r.take(int(n))
}

// String consumes a 16-bit length prefix and that many bytes as a string.
func (r *Reader) String() string {
	n := r.U16()
	if r.err != nil {
		return ""
	}
	if len(r.b) < int(n) {
		r.err = ErrTruncated
		return ""
	}
	return string(r.take(int(n)))
}
