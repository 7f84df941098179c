package mpeg

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// Movie file format: how the synthetic movies are stored on server disks,
// standing in for the paper's MPEG files ("new movies can be added on the
// fly by storing them on machines where servers are running", §7). Only
// the stream structure is stored — frame classes and sizes — because the
// payload bytes a server sends are a function of the frame table (see
// PacketTable).
//
//	magic "VODM" | version u8 | id string | fps u16 |
//	frame count u32 | count × (class u8, size u32)

const fileMagic = "VODM"

const fileVersion = 1

// headerSize is the fixed fields: magic, version, ID length, fps, frame count.
const headerSize = len(fileMagic) + 1 + 2 + 2 + 4

// frameRecordSize is one frame-table record: class u8 + size u32.
const frameRecordSize = 5

// maxIDLen bounds a title ID read from a file. The packet table repeats the
// ID once per frame, so with it a table costs at most (13+maxIDLen)/5 ≈ 16×
// the file that described it, plus a tail of at most one frame.
const maxIDLen = 64

const maxFrames = 1 << 26 // the most frames a file may claim

// MaxFileSize is the size of the largest movie file Parse accepts: the
// longest title ID and maxFrames frame records.
const MaxFileSize = headerSize + maxIDLen + maxFrames*frameRecordSize

// File returns the movie's file form, built on first use and shared: the
// slice must never be written to.
func (m *Movie) File() []byte {
	m.pktMu.Lock()
	defer m.pktMu.Unlock()
	if m.file != nil {
		return m.file
	}
	buf := make([]byte, 0, headerSize+len(m.id)+frameRecordSize*len(m.frames))
	buf = append(buf, fileMagic...)
	buf = wire.AppendU8(buf, fileVersion)
	buf = wire.AppendString(buf, m.id)
	buf = wire.AppendU16(buf, uint16(m.fps))
	buf = wire.AppendU32(buf, uint32(len(m.frames)))
	for _, f := range m.frames {
		buf = wire.AppendU8(buf, uint8(f.Class))
		buf = wire.AppendU32(buf, uint32(f.Size))
	}
	m.file = buf
	return buf
}

// WriteTo serializes the movie. It implements io.WriterTo.
func (m *Movie) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(m.File())
	return int64(n), err
}

// ReadFrom deserializes a movie written by WriteTo.
func ReadFrom(r io.Reader) (*Movie, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mpeg: reading movie: %w", err)
	}
	return Parse(data)
}

// Parse decodes a movie file held in memory; the movie keeps no reference to
// it. Every record is read and checked; while the records match a title the
// process holds (see titles), they are compared rather than copied, and a
// file equal to that title returns it.
func Parse(data []byte) (*Movie, error) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("mpeg: not a movie file (bad magic)")
	}
	rd := wire.NewReader(data[len(fileMagic):])
	if v := rd.U8(); v != fileVersion {
		return nil, fmt.Errorf("mpeg: unsupported movie file version %d", v)
	}
	id := rd.String()
	fps := int(rd.U16())
	n := int(rd.U32())
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("mpeg: corrupt movie header: %w", err)
	}
	if len(id) > maxIDLen {
		return nil, fmt.Errorf("mpeg: movie ID of %d bytes exceeds %d", len(id), maxIDLen)
	}
	if id == "" || fps <= 0 || n <= 0 || n > maxFrames {
		return nil, fmt.Errorf("mpeg: implausible movie header (id=%q fps=%d frames=%d)", id, fps, n)
	}
	// The count comes off the network or the disk: believe it only as far
	// as the bytes that follow can back it, before reserving the table.
	if n > rd.Remaining()/frameRecordSize {
		return nil, fmt.Errorf("mpeg: truncated frame table (%d frames claimed, %d bytes follow)", n, rd.Remaining())
	}
	// held are the held titles whose records all match so far; frames is
	// built once none is left.
	var buf [maxTitles]*Movie
	titles.Lock()
	held := slices.DeleteFunc(append(buf[:0], titles.held...), func(h *Movie) bool { return !h.sameHeader(id, fps, n) })
	titles.Unlock()
	var frames []FrameInfo
	if len(held) == 0 {
		frames = make([]FrameInfo, 0, n)
	}
	var total int64
	for i := 0; i < n; i++ {
		class := wire.FrameClass(rd.U8())
		size := int(rd.U32())
		if rd.Err() != nil {
			return nil, fmt.Errorf("mpeg: corrupt frame table at %d: %w", i, rd.Err())
		}
		if class < wire.FrameI || class > wire.FrameB || size <= 0 || size > 1<<20 {
			return nil, fmt.Errorf("mpeg: implausible frame %d (class=%d size=%d)", i, class, size)
		}
		f := FrameInfo{Class: class, Size: size}
		if len(held) > 0 {
			last := held[0]
			if held = slices.DeleteFunc(held, func(h *Movie) bool { return h.frames[i] != f }); len(held) == 0 {
				frames = append(make([]FrameInfo, 0, n), last.frames[:i]...)
			}
		}
		if len(held) == 0 {
			frames = append(frames, f)
		}
		total += int64(size)
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("mpeg: trailing data: %w", err)
	}
	if len(held) > 0 {
		return intern(held[0]), nil
	}
	return intern(&Movie{id: id, fps: fps, frames: frames, total: total}), nil
}
