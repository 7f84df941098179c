package wire

import "fmt"

// Kind discriminates the VoD protocol messages. GCS-internal messages have
// their own envelope inside package gcs; these kinds cover everything the
// VoD layer itself puts on the wire, whether over raw datagrams (frames) or
// as payloads of reliable group multicasts (control, state sync).
type Kind uint8

// The VoD message kinds.
const (
	// KindOpen is sent by a client to the server group to start watching
	// a movie ("connect to the VoD service and request a movie").
	KindOpen Kind = iota + 1
	// KindOpenReply answers an Open with the session parameters.
	KindOpenReply
	// KindFrame carries one video frame, server → client, over the
	// unreliable video channel: one frame per message, as in the paper.
	KindFrame
	// KindFlowControl carries a client flow-control request into the
	// session group (±1 frame/s, or an emergency refill request).
	KindFlowControl
	// KindVCR carries a client VCR operation (pause/resume/seek/quality/
	// stop) into the session group.
	KindVCR
	// KindClientState is the periodic server→server state-sync record
	// multicast on a movie group every half second.
	KindClientState
)

// Message is a VoD protocol message that can be framed with Encode.
type Message interface {
	// Kind returns the message's wire discriminator.
	Kind() Kind
	// appendBody appends the message body (without the kind byte).
	appendBody(b []byte) []byte
	// encodedSize is the exact length appendBody writes, so a frame is
	// sized before it is written: AppendMessage reserves it up front and a
	// fresh buffer costs one allocation, not one per field that overflows.
	encodedSize() int
}

// Encode frames m as a kind byte followed by its body, into a buffer of
// its own sized to the frame.
func Encode(m Message) []byte { return AppendMessage(nil, m) }

// Decode parses a framed message produced by Encode into a fresh value of
// its kind, through the same parser as the kind's Decode*Into form. The
// returned message does not alias b except where noted (Frame.Payload).
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wire: reading kind: %w", ErrTruncated)
	}
	var (
		m   Message
		err error
	)
	switch kind := Kind(b[0]); kind {
	case KindOpen:
		o := new(Open)
		m, err = o, DecodeOpenInto(o, b)
	case KindOpenReply:
		o := new(OpenReply)
		m, err = o, DecodeOpenReplyInto(o, b)
	case KindFrame:
		f := new(Frame)
		m, err = f, DecodeFrameInto(f, b)
	case KindFlowControl:
		f := new(FlowControl)
		m, err = f, DecodeFlowControlInto(f, b)
	case KindVCR:
		v := new(VCR)
		m, err = v, decodeVCRInto(v, b)
	case KindClientState:
		c := new(ClientState)
		m, err = c, DecodeClientStateInto(c, nil, b)
	default:
		return nil, fmt.Errorf("wire: unknown message kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// decode checks that r holds a framed message of kind k, parses the body
// with body — the kind's one parser, a closure over r and the destination —
// and returns the first error, wrapped with the kind. A body sets every
// field of its destination on every call, so a destination reused across
// calls keeps nothing of the previous message; a failed decode leaves it
// partly written.
func (r *Reader) decode(k Kind, body func()) error {
	if got := Kind(r.U8()); r.err == nil && got != k {
		return fmt.Errorf("wire: decoding %v: unexpected kind %v", k, got)
	}
	body()
	if err := r.Done(); err != nil {
		return fmt.Errorf("wire: decoding %v: %w", k, err)
	}
	return nil
}

// String implements fmt.Stringer for log readability.
func (k Kind) String() string {
	switch k {
	case KindOpen:
		return "Open"
	case KindOpenReply:
		return "OpenReply"
	case KindFrame:
		return "Frame"
	case KindFlowControl:
		return "FlowControl"
	case KindVCR:
		return "VCR"
	case KindClientState:
		return "ClientState"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Class is the traffic class of a session: reserved viewers paid for
// guaranteed service and are starved last; best-effort viewers absorb
// degradation first when the cluster is under pressure. The zero value is
// ClassReserved, so every pre-class encoding and every client that never
// sets a class behaves exactly as before classes existed.
type Class uint8

// The traffic classes.
const (
	ClassReserved   Class = 0
	ClassBestEffort Class = 1
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassReserved:
		return "reserved"
	case ClassBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Open asks the abstract server group to start a session. The client never
// names a particular server.
type Open struct {
	ClientID   string // globally unique client identifier
	ClientAddr string // transport address video frames should be sent to
	Movie      string // requested movie ID from the catalog
	Class      Class  // traffic class; encoded only when non-reserved
	// Lease marks a two-tier (lease-mode) client: it will not join a
	// session group and keeps the session alive with lease renewals
	// instead. Travels in an optional trailing flags byte.
	Lease bool
	// Takeover marks a starvation re-anycast from a lease-mode client:
	// the receiving replica may adopt the session from the knowledge
	// table even though another server nominally holds it.
	Takeover bool
}

// Open flag bits (optional trailing flags byte).
const (
	openFlagLease    = 1 << 0
	openFlagTakeover = 1 << 1
)

var _ Message = (*Open)(nil)

// Kind implements Message.
func (*Open) Kind() Kind { return KindOpen }

func (m *Open) appendBody(b []byte) []byte {
	b = AppendString(b, m.ClientID)
	b = AppendString(b, m.ClientAddr)
	b = AppendString(b, m.Movie)
	// The class travels as an optional trailing byte so reserved-class
	// (default) Opens stay byte-identical to the pre-class encoding. The
	// lease/takeover flags byte follows it, appended only when some flag
	// is set (which forces the class byte out too, even when reserved,
	// so the decoder can position the fields by the remaining length).
	flags := uint8(0)
	if m.Lease {
		flags |= openFlagLease
	}
	if m.Takeover {
		flags |= openFlagTakeover
	}
	if m.Class != ClassReserved || flags != 0 {
		b = AppendU8(b, uint8(m.Class))
	}
	if flags != 0 {
		b = AppendU8(b, flags)
	}
	return b
}

func (m *Open) encodedSize() int {
	n := stringSize(m.ClientID) + stringSize(m.ClientAddr) + stringSize(m.Movie)
	switch {
	case m.Lease || m.Takeover:
		return n + 2 // class byte and flags byte
	case m.Class != ClassReserved:
		return n + 1
	}
	return n
}

// DecodeOpenInto parses a framed KindOpen message into *m. All three strings
// are ones a retrying client resends verbatim, so decoding into a pooled
// scratch Open is allocation-free for every retry after the first. Every
// client sends its ID as its address too, so a ClientAddr byte-identical to
// the ClientID just decoded shares that string instead of making its own.
func DecodeOpenInto(m *Open, b []byte) error {
	r := Reader{b: b}
	return r.decode(KindOpen, func() {
		keepString(&m.ClientID, r.StringBytes())
		if addr := r.StringBytes(); string(addr) == m.ClientID {
			m.ClientAddr = m.ClientID
		} else {
			keepString(&m.ClientAddr, addr)
		}
		keepString(&m.Movie, r.StringBytes())
		m.Class, m.Lease, m.Takeover = ClassReserved, false, false
		if r.err == nil && r.Remaining() > 0 {
			m.Class = Class(r.U8())
		}
		if r.err == nil && r.Remaining() > 0 {
			flags := r.U8()
			m.Lease = flags&openFlagLease != 0
			m.Takeover = flags&openFlagTakeover != 0
		}
	})
}

// ServerGroup is the group of all VoD servers: clients anycast their Open
// to it, and servers register under it in the directory.
const ServerGroup = "vod.servers"

// SessionGroup names a client's session group, which the client and its
// serving server join for control traffic.
func SessionGroup(clientID string) string { return "vod.session." + clientID }

// OpenReply carries the session parameters back to the client, or an error.
type OpenReply struct {
	OK           bool
	Error        string // set when !OK
	Movie        string
	TotalFrames  uint32 // length of the movie in frames
	FPS          uint16 // nominal display rate
	SessionGroup string // group the client must join for control traffic
	// RetryAfterMs, when nonzero on a refusal, is the server's hint for how
	// long the client should wait before retrying the Open (milliseconds).
	// Encoded only when nonzero, as an optional trailing field.
	RetryAfterMs uint32
	// LeaseTTLMs, when nonzero on a successful reply to a lease-mode
	// Open, is the granted lease lifetime (milliseconds): the client
	// must renew within it or the server reclaims the session. Optional
	// trailing field after RetryAfterMs; its presence forces
	// RetryAfterMs out too so the decoder can tell the two apart by the
	// remaining length.
	LeaseTTLMs uint32
}

var _ Message = (*OpenReply)(nil)

// Kind implements Message.
func (*OpenReply) Kind() Kind { return KindOpenReply }

func (m *OpenReply) appendBody(b []byte) []byte {
	b = appendBool(b, m.OK)
	b = AppendString(b, m.Error)
	b = AppendString(b, m.Movie)
	b = AppendU32(b, m.TotalFrames)
	b = AppendU16(b, m.FPS)
	b = AppendString(b, m.SessionGroup)
	if m.RetryAfterMs != 0 || m.LeaseTTLMs != 0 {
		b = AppendU32(b, m.RetryAfterMs)
	}
	if m.LeaseTTLMs != 0 {
		b = AppendU32(b, m.LeaseTTLMs)
	}
	return b
}

func (m *OpenReply) encodedSize() int {
	n := 1 + stringSize(m.Error) + stringSize(m.Movie) + 4 + 2 + stringSize(m.SessionGroup)
	switch {
	case m.LeaseTTLMs != 0:
		return n + 8 // RetryAfterMs and LeaseTTLMs
	case m.RetryAfterMs != 0:
		return n + 4
	}
	return n
}

// DecodeOpenReplyInto parses a framed KindOpenReply message into *m. A
// client cycling through refusing servers receives the same at-capacity
// reply over and over; decoding into scratch makes each one free.
func DecodeOpenReplyInto(m *OpenReply, b []byte) error {
	r := Reader{b: b}
	return r.decode(KindOpenReply, func() {
		m.OK = r.bool()
		keepString(&m.Error, r.StringBytes())
		keepString(&m.Movie, r.StringBytes())
		m.TotalFrames = r.U32()
		m.FPS = r.U16()
		keepString(&m.SessionGroup, r.StringBytes())
		m.RetryAfterMs, m.LeaseTTLMs = 0, 0
		if r.err == nil && r.Remaining() > 0 {
			m.RetryAfterMs = r.U32()
		}
		if r.err == nil && r.Remaining() > 0 {
			m.LeaseTTLMs = r.U32()
		}
	})
}

// FrameClass is the MPEG frame type carried in a Frame message. I frames
// are full images; P and B frames are incremental and undecodable without
// their reference frames.
type FrameClass uint8

// The MPEG frame classes.
const (
	FrameI FrameClass = iota + 1
	FrameP
	FrameB
)

// String implements fmt.Stringer.
func (c FrameClass) String() string {
	switch c {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameClass(%d)", uint8(c))
	}
}

// Frame is one video frame in flight. Exactly one frame travels per
// datagram; the stream is identified by the session, so the frame carries
// only its index and class.
type Frame struct {
	Movie   string
	Index   uint32     // position in the movie, 0-based
	Class   FrameClass // I, P or B
	Payload []byte     // frame bytes; aliases the receive buffer on decode
}

var _ Message = (*Frame)(nil)

// Kind implements Message.
func (*Frame) Kind() Kind { return KindFrame }

func (m *Frame) appendBody(b []byte) []byte {
	b = appendFrameFields(b, m.Movie, m.Index, m.Class, len(m.Payload))
	return append(b, m.Payload...)
}

func (m *Frame) encodedSize() int { return FrameHeaderSize(m.Movie) - 1 + len(m.Payload) }

// appendFrameFields appends a Frame body up to and including the payload's
// 32-bit length prefix.
func appendFrameFields(b []byte, movie string, index uint32, class FrameClass, payloadLen int) []byte {
	b = AppendString(b, movie)
	b = AppendU32(b, index)
	b = AppendU8(b, uint8(class))
	return AppendU32(b, uint32(payloadLen))
}

// FrameHeaderSize returns how many bytes a framed Frame message of the named
// movie carries ahead of its payload: kind, movie ID, index, class and the
// payload length prefix.
func FrameHeaderSize(movie string) int { return 1 + 2 + len(movie) + 4 + 1 + 4 }

// AppendFrameHeader appends everything AppendMessage would write for a Frame
// ahead of the payload bytes. A sender that produces the payload in place
// appends exactly payloadLen bytes behind it and has the framed message
// without building the payload elsewhere first.
func AppendFrameHeader(b []byte, movie string, index uint32, class FrameClass, payloadLen int) []byte {
	b = AppendU8(b, uint8(KindFrame))
	return appendFrameFields(b, movie, index, class, payloadLen)
}

// DecodeFrameInto parses a framed KindFrame message into *f without
// allocating in steady state: f.Payload aliases b (same contract as Decode),
// and f.Movie is kept as-is when the bytes on the wire match it, so a
// receiver decoding a stream of frames for one movie reuses the same string
// for the whole session.
func DecodeFrameInto(f *Frame, b []byte) error {
	r := Reader{b: b}
	return r.decode(KindFrame, func() {
		keepString(&f.Movie, r.StringBytes())
		f.Index = r.U32()
		f.Class = FrameClass(r.U8())
		f.Payload = r.Bytes()
	})
}

// FlowKind is the type of a client flow-control request (Figure 2 and §4.1
// of the paper).
type FlowKind uint8

// The flow-control request kinds.
const (
	// FlowIncrease asks the server to raise the rate by one frame/s.
	FlowIncrease FlowKind = iota + 1
	// FlowDecrease asks the server to lower the rate by one frame/s.
	FlowDecrease
	// FlowEmergencyMinor reports occupancy below the 30% threshold;
	// the server adds the minor emergency quantity (q=6).
	FlowEmergencyMinor
	// FlowEmergencyMajor reports occupancy below the 15% threshold;
	// the server adds the major emergency quantity (q=12).
	FlowEmergencyMajor
)

// String implements fmt.Stringer.
func (k FlowKind) String() string {
	switch k {
	case FlowIncrease:
		return "increase"
	case FlowDecrease:
		return "decrease"
	case FlowEmergencyMinor:
		return "emergency-minor"
	case FlowEmergencyMajor:
		return "emergency-major"
	default:
		return fmt.Sprintf("FlowKind(%d)", uint8(k))
	}
}

// FlowControl is a client→server flow-control request, multicast into the
// session group so whichever server currently serves the client gets it.
type FlowControl struct {
	ClientID string
	Request  FlowKind
	// Occupancy is the combined buffer occupancy in frames. A decrease at
	// high water ends an emergency burst, so over-reporting it can only cut
	// short the client's own refill.
	Occupancy uint16
}

var _ Message = (*FlowControl)(nil)

// Kind implements Message.
func (*FlowControl) Kind() Kind { return KindFlowControl }

func (m *FlowControl) appendBody(b []byte) []byte {
	b = AppendString(b, m.ClientID)
	b = AppendU8(b, uint8(m.Request))
	return AppendU16(b, m.Occupancy)
}

func (m *FlowControl) encodedSize() int { return stringSize(m.ClientID) + 1 + 2 }

// DecodeFlowControlInto parses a framed KindFlowControl message into *m
// without allocating in steady state: m.ClientID is kept as-is when the
// bytes on the wire match it, so a server decoding the flow-control stream
// of one client into per-session scratch reuses the same string for the
// whole session.
func DecodeFlowControlInto(m *FlowControl, b []byte) error {
	r := Reader{b: b}
	return r.decode(KindFlowControl, func() {
		keepString(&m.ClientID, r.StringBytes())
		m.Request = FlowKind(r.U8())
		m.Occupancy = r.U16()
	})
}

// VCROp is a VCR operation ("full VCR-like control over the transmitted
// material", §3, per the ATM Forum VoD spec).
type VCROp uint8

// The VCR operations.
const (
	VCRPause VCROp = iota + 1
	VCRResume
	VCRSeek    // random access to Arg (frame index)
	VCRQuality // reduce to Arg frames/s; server skips non-I frames
	VCRStop    // end the session
)

// String implements fmt.Stringer.
func (op VCROp) String() string {
	switch op {
	case VCRPause:
		return "pause"
	case VCRResume:
		return "resume"
	case VCRSeek:
		return "seek"
	case VCRQuality:
		return "quality"
	case VCRStop:
		return "stop"
	default:
		return fmt.Sprintf("VCROp(%d)", uint8(op))
	}
}

// VCR is a client→server VCR command, multicast into the session group.
type VCR struct {
	ClientID string
	Op       VCROp
	Arg      uint32 // seek target frame, or quality target fps
}

var _ Message = (*VCR)(nil)

// Kind implements Message.
func (*VCR) Kind() Kind { return KindVCR }

func (m *VCR) appendBody(b []byte) []byte {
	b = AppendString(b, m.ClientID)
	b = AppendU8(b, uint8(m.Op))
	return AppendU32(b, m.Arg)
}

func (m *VCR) encodedSize() int { return stringSize(m.ClientID) + 1 + 4 }

// decodeVCRInto is VCR's body parser. Only Decode calls it: VCR commands
// are rare enough that nobody decodes them into scratch.
func decodeVCRInto(m *VCR, b []byte) error {
	r := Reader{b: b}
	return r.decode(KindVCR, func() {
		m.ClientID = r.String()
		m.Op = VCROp(r.U8())
		m.Arg = r.U32()
	})
}

// ClientRecord is one client's entry in a state-sync multicast: everything
// another server needs to take the client over (§5.2 — "the offsets of its
// clients in the movie and their current transmission rates").
// The session group (SessionGroup(ClientID)) and the movie (implied by
// the movie group the record is multicast on) are derivable and therefore
// not carried — the paper reports "a total of a few dozen bytes" per
// client, and this record is exactly that.
type ClientRecord struct {
	ClientID   string
	ClientAddr string
	Offset     uint32 // next frame index to transmit
	Rate       uint16 // current transmission rate, frames/s
	QualityFPS uint16 // client-requested quality cap; 0 = full quality
	Paused     bool
	Departed   bool  // session ended; peers must forget this client
	SentAt     int64 // sender's clock, unix milliseconds, for ordering
	Class      Class // traffic class, preserved across takeover
	// Leased marks a two-tier client attached by lease rather than
	// session-group membership. Leased clients are excluded from
	// view-change redistribution (they migrate by re-anycasting) but
	// their records still sync, so any replica can adopt them. Packed
	// into the high bit of the optional per-record class byte.
	Leased bool
}

// recLeasedBit is the Leased flag inside the optional per-record class
// byte: low 7 bits carry the Class, the high bit the lease mark.
const recLeasedBit = 0x80

// ClientState is the state-sync message multicast on a movie group: the
// periodic half-second sync (a few dozen bytes per client) and, with
// ViewSeq set, the knowledge exchange that precedes client redistribution
// after a view change (§5.2: "the servers first exchange information about
// clients, and then use it to deduce which clients each of them will
// serve").
type ClientState struct {
	Server  string // sending server's ID
	Clients []ClientRecord
	// ViewSeq, when nonzero, marks this as the sender's view-synchronization
	// message for the movie-group view with that sequence number.
	ViewSeq uint64
	// Newcomer is set on view-sync messages by servers that joined the
	// group with no client knowledge — fresh servers brought up to
	// alleviate load. Redistribution deals clients to newcomers first.
	Newcomer bool
}

var _ Message = (*ClientState)(nil)

// Kind implements Message.
func (*ClientState) Kind() Kind { return KindClientState }

func (m *ClientState) appendBody(b []byte) []byte {
	b = AppendString(b, m.Server)
	b = AppendU64(b, m.ViewSeq)
	b = appendBool(b, m.Newcomer)
	b = AppendU16(b, uint16(len(m.Clients)))
	classed := false
	for i := range m.Clients {
		c := &m.Clients[i]
		b = AppendString(b, c.ClientID)
		b = AppendString(b, c.ClientAddr)
		b = AppendU32(b, c.Offset)
		b = AppendU16(b, c.Rate)
		b = AppendU16(b, c.QualityFPS)
		b = appendBool(b, c.Paused)
		b = appendBool(b, c.Departed)
		b = appendI64(b, c.SentAt)
		if c.Class != ClassReserved || c.Leased {
			classed = true
		}
	}
	// Per-record classes travel as an optional trailing block (one byte per
	// record, in record order), appended only when some record is
	// non-reserved or leased — an all-reserved, lease-free sync stays
	// byte-identical to the pre-class encoding, keeping SyncBytes and the
	// figures unchanged for clusters that never use classes or leases.
	if classed {
		for i := range m.Clients {
			cb := uint8(m.Clients[i].Class) &^ recLeasedBit
			if m.Clients[i].Leased {
				cb |= recLeasedBit
			}
			b = AppendU8(b, cb)
		}
	}
	return b
}

func (m *ClientState) encodedSize() int {
	n := stringSize(m.Server) + 8 + 1 + 2
	classed := false
	for i := range m.Clients {
		c := &m.Clients[i]
		n += minClientRecordBytes + len(c.ClientID) + len(c.ClientAddr)
		if c.Class != ClassReserved || c.Leased {
			classed = true
		}
	}
	if classed {
		n += len(m.Clients)
	}
	return n
}

// minClientRecordBytes is the smallest possible encoded ClientRecord: two
// empty strings (2 bytes of length prefix each) plus the fixed fields.
const minClientRecordBytes = 2 + 2 + 4 + 2 + 2 + 1 + 1 + 8

// DecodeClientStateInto parses a framed KindClientState message into *m —
// the state-sync hot path. It reuses m.Clients' backing array across calls
// and interns the sender's ID and the per-record strings through tab, so a
// warm decode of a periodic sync allocates nothing, even when one scratch
// takes the syncs of several senders in turn: at cluster scale one string
// allocation per record would dominate the whole simulation's allocation
// profile. Decode passes a nil tab, which interns nothing.
func DecodeClientStateInto(m *ClientState, tab Intern, b []byte) error {
	r := Reader{b: b}
	return r.decode(KindClientState, func() {
		m.Server = tab.Get(r.StringBytes())
		m.ViewSeq = r.U64()
		m.Newcomer = r.bool()
		n := int(r.U16())
		// Guard the allocation against a hostile count: n records need at
		// least n*minClientRecordBytes more input, so a short packet claiming
		// 65535 records fails here instead of allocating megabytes first.
		if n*minClientRecordBytes > r.Remaining() {
			r.err = ErrTruncated
			return
		}
		if cap(m.Clients) < n {
			m.Clients = make([]ClientRecord, n)
		}
		m.Clients = m.Clients[:n]
		for i := 0; i < n && r.err == nil; i++ {
			m.Clients[i] = ClientRecord{
				ClientID:   tab.Get(r.StringBytes()),
				ClientAddr: tab.Get(r.StringBytes()),
				Offset:     r.U32(),
				Rate:       r.U16(),
				QualityFPS: r.U16(),
				Paused:     r.bool(),
				Departed:   r.bool(),
				SentAt:     r.i64(),
			}
		}
		if r.err == nil && r.Remaining() > 0 {
			for i := range m.Clients {
				cb := r.U8()
				m.Clients[i].Class = Class(cb &^ recLeasedBit)
				m.Clients[i].Leased = cb&recLeasedBit != 0
			}
		}
	})
}
