package wire

import "slices"

// AppendMessage frames m — kind byte, then body — onto b and returns the
// extended slice. It reserves the whole frame before writing its first
// byte, so a buffer too small for it grows once, and callers that bring a
// buffer with room (an Encoder scratch, a pooled packet) pay nothing.
func AppendMessage(b []byte, m Message) []byte {
	b = slices.Grow(b, 1+m.encodedSize())
	b = AppendU8(b, uint8(m.Kind()))
	return m.appendBody(b)
}

// Encoder frames messages into a reusable scratch buffer. The buffer grows
// only for a message larger than every earlier one, once each time, so a
// warm Encoder performs zero allocations. The zero value is ready to use.
//
// An Encoder is not safe for concurrent use, and each Encode invalidates the
// slice returned by the previous one: callers that retain an encoded message
// past the next Encode (deferred sends, queued packets) must copy it or use
// the package-level Encode instead.
type Encoder struct {
	buf []byte
}

// Encode frames m into the scratch buffer and returns it. The returned
// slice is only valid until the next call on this Encoder.
func (e *Encoder) Encode(m Message) []byte {
	e.buf = AppendMessage(e.buf[:0], m)
	return e.buf
}

// keepString stores b as a string in *dst, reusing the existing string when
// the bytes already match. The comparison compiles allocation-free, so the
// conversion (and its allocation) only runs when the value actually changed —
// the idiom shared by the Decode*Into family for fields that are stable
// across a session (client IDs, movie names, group names).
func keepString(dst *string, b []byte) {
	if string(b) != *dst {
		*dst = string(b)
	}
}

// Intern is a string intern table for decoders on repetitive streams: the
// same identifiers (client IDs, addresses, group names) arrive over and
// over, and looking a byte slice up under a string conversion compiles
// allocation-free, so only the first sighting of each distinct value
// allocates. Entries are never evicted, so a table holds at most maxInterned
// of them: past that, a new value is converted but not kept, and a stream
// of ever-new identifiers (client churn over a daemon's life) cannot grow
// the table without bound.
type Intern map[string]string

const maxInterned = 4096

// Get returns the interned string for b, adding it on first sight while the
// table has room. A nil table interns nothing: every call converts.
func (t Intern) Get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := t[string(b)]; ok { // allocation-free lookup
		return s
	}
	s := string(b)
	if t != nil && len(t) < maxInterned {
		t[s] = s
	}
	return s
}

// StringBytes consumes a 16-bit length prefix and returns the raw string
// bytes, aliasing the underlying buffer. It is the no-copy twin of String
// for decoders that compare (or intern) before converting.
func (r *Reader) StringBytes() []byte {
	n := r.U16()
	if r.err != nil {
		return nil
	}
	if len(r.b) < int(n) {
		r.err = ErrTruncated
		return nil
	}
	return r.take(int(n))
}
