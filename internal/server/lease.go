package server

import (
	"repro/internal/gcs"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file is the server half of the two-tier membership split: leased
// clients are not group members at all. Their control plane — lease
// renewals, flow control, VCR — arrives as direct datagrams on the GCS
// process, and their liveness is a lease table instead of a failure
// detector. Frames were always sent point-to-point, so the video path is
// untouched.

// leasesLocked returns the lease table, creating it on first use. Lazy
// because a paper-tier server, which admits no leased client, never needs
// the table or its sweep. Caller holds s.mu.
func (s *Server) leasesLocked() *lease.Table {
	if s.leases == nil {
		s.leases = lease.NewTable(s.cfg.Clock, lease.DefaultTTL, s.onLeaseExpire)
	}
	return s.leases
}

// onLeaseExpire tears down a leased session whose client went silent — the
// lease-tier analogue of the failure detector expelling a member. The
// tombstone tells the movie group the client is gone; if the client is in
// fact alive it will re-anycast its Open (takeover) and be adopted afresh.
func (s *Server) onLeaseExpire(clientID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	sess := s.sessions[clientID]
	if sess == nil || sess.closed || !sess.rec.Leased {
		return
	}
	s.departLocked(sess)
	s.cfg.Obs.Emit(obs.ServerLeaseExpired, clientID, "", 0, 0)
}

// onDirect handles point-to-point datagrams sent to this server: the
// leased-client control plane. The lease kinds (0x11+) and the wire
// message kinds (1–6) are disjoint, so one byte routes.
func (s *Server) onDirect(from gcs.ProcessID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case lease.KindRenew:
		s.handleRenew(from, payload)
	case byte(wire.KindFlowControl), byte(wire.KindVCR):
		s.handleDirectCtl(from, payload)
	}
}

// directSessionLocked finds the live leased session named by the leading
// ClientID field of a direct datagram (Renew, FlowControl or VCR) — provided
// the datagram came from that session's own address: the ID is only the
// sender's claim, and without the comparison any address could keep a
// victim's lease alive, harvest its acks or drive its stream. The ID bytes
// alias the payload and index the map directly, so the steady state builds no
// string. Caller holds s.mu.
func (s *Server) directSessionLocked(from gcs.ProcessID, payload []byte) *session {
	r := wire.NewReader(payload)
	r.U8()
	id := r.StringBytes()
	if r.Err() != nil {
		return nil
	}
	sess := s.sessions[string(id)]
	if sess == nil || sess.closed || !sess.rec.Leased || string(from) != sess.rec.ClientAddr {
		return nil
	}
	return sess
}

// handleRenew refreshes a leased client's lease and acks. Renews for
// unknown, closed or unleased sessions — or from an address that is not the
// session's client — are silently dropped: a real client's keeper starves
// and re-anycasts its Open, which is the takeover path. The renew is decoded
// against the session's own ClientID, so a warm decode allocates nothing.
func (s *Server) handleRenew(from gcs.ProcessID, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.leases == nil {
		return
	}
	sess := s.directSessionLocked(from, payload)
	if sess == nil {
		return
	}
	msg := lease.Renew{ClientID: sess.rec.ClientID}
	if err := lease.DecodeRenewInto(&msg, payload); err != nil {
		return
	}
	s.leases.Touch(msg.ClientID)
	ack := lease.Ack{
		ClientID: msg.ClientID,
		Seq:      msg.Seq,
		TTLMs:    uint32(s.leases.TTL().Milliseconds()),
	}
	pkt := lease.AppendAck(s.ackBuf[:0], &ack)
	s.ackBuf = pkt[:0]
	// Send under s.mu: the gcs process lock nests strictly inside it
	// (callbacks run lock-free, so the reverse order never occurs), and
	// pkt aliases ackBuf, which the next renew reuses.
	_ = s.proc.Send(from, pkt)
}

// handleDirectCtl routes a leased client's FlowControl or VCR datagram
// into the same per-session logic the session-group path uses.
func (s *Server) handleDirectCtl(from gcs.ProcessID, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.directSessionLocked(from, payload); sess != nil {
		s.sessionCtlLocked(sess, sess.rec.ClientID, payload)
	}
}
