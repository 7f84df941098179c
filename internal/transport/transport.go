// Package transport defines the unreliable-datagram abstraction that every
// networked component in this repository is written against, mirroring the
// paper's use of raw UDP/IP for both video transmission and the group
// communication substrate.
//
// Two implementations exist: package netsim provides a deterministic
// simulated Network, and UDPEndpoint (in this package) provides real UDP
// sockets for the cmd/ binaries. A Mux splits one endpoint into independent
// channels so control-plane (GCS) and data-plane (video) traffic share a
// single address, as they share a single UDP port in the paper's prototype.
package transport

import "errors"

// Addr identifies an endpoint. For the simulated network it is a free-form
// node name ("server-1"); for UDP it is a host:port string.
type Addr string

// Handler receives an inbound datagram. The payload is only valid for the
// duration of the call: implementations may hand the same buffer to the next
// delivery (the simulated network recycles packet buffers through a pool),
// so handlers that retain any part of the payload must copy it before
// returning. Symmetrically, Send does not retain the payload after it
// returns; senders may immediately reuse their buffer.
type Handler func(from Addr, payload []byte)

// Endpoint is an unreliable, unordered datagram endpoint: messages may be
// dropped, duplicated or reordered by the network, exactly like UDP.
type Endpoint interface {
	// Addr returns the address other endpoints use to reach this one.
	Addr() Addr

	// Send transmits payload to the endpoint at to. A nil error means the
	// datagram was handed to the network, not that it will arrive.
	Send(to Addr, payload []byte) error

	// SetHandler installs the inbound handler. Datagrams arriving while no
	// handler is installed are dropped, as UDP drops datagrams when no one
	// is listening. SetHandler must be called before traffic is expected.
	SetHandler(h Handler)

	// Close releases the endpoint. Subsequent Sends fail with ErrClosed.
	Close() error
}

// AddrRef is a pre-resolved destination handle: a dense integer a network
// hands out for an Addr so per-packet sends need not re-hash the address
// string. Refs are only meaningful to the network that issued them.
type AddrRef int32

// noAddrRef is the reference of a destination no network resolved: the
// value a Dest carries when its channel's endpoint is not a RefSender.
const noAddrRef AddrRef = -1

// RefSender is the one optional Endpoint extension: a no-copy send path for
// networks with dense internal routing (netsim). Every payload sent through
// it must be immutable for the rest of the process lifetime — precomputed
// frame tables shared by every viewer of a movie — and the network may
// alias it indefinitely instead of copying: the simulated network delivers
// the very same backing array to receiving handlers, so neither the sender
// nor any receiver may ever write through it. Endpoints without such a path
// (UDPEndpoint) don't implement the interface; a mux Channel falls back to
// Send for them, which is always correct.
type RefSender interface {
	// ResolveAddr interns to and returns a reference that stays valid for
	// the lifetime of the network, across crashes and rebinds of the
	// referenced address.
	ResolveAddr(to Addr) AddrRef

	// SendStableRef behaves exactly like Send to the referenced address —
	// same drop, duplication and timing behavior, so a run sending by
	// reference replays byte-for-byte like one sending by address — except
	// that the payload is aliased, not copied.
	SendStableRef(to AddrRef, payload []byte) error

	// SendStableRefBatch transmits payloads[i] to dsts[i] for every i (the
	// slices must be the same length); entries may alias one another — a
	// broadcast hands the same backing array to every destination. The
	// contract is equivalence with a loop: loss, duplication and
	// per-destination link timing behave as if SendStableRef had been
	// called once per destination in slice order, consuming the same random
	// draws in the same order, so a run that batches its fan-out keeps
	// aggregate statistics identical to one that loops. Implementations are
	// free to coalesce the surviving deliveries into one scheduled event
	// (netsim does); only per-delivery timing, never content or ordering
	// among the batch, may differ from the loop.
	SendStableRefBatch(dsts []AddrRef, payloads [][]byte) error
}

// Network creates endpoints. The simulated implementation wires them to a
// shared topology; tests use it to build whole clusters in-process.
type Network interface {
	// NewEndpoint binds a new endpoint at addr.
	NewEndpoint(addr Addr) (Endpoint, error)
}

var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")

	// ErrAddrInUse is returned when binding an address that is taken.
	ErrAddrInUse = errors.New("transport: address already in use")

	// ErrNoRoute is returned by simulated sends to an address that has
	// never been bound. (UDP cannot detect this; the simulator reports it
	// because sending to a nonexistent node is always a harness bug.)
	ErrNoRoute = errors.New("transport: no route to address")

	// ErrTooLarge is returned for payloads exceeding the datagram limit.
	ErrTooLarge = errors.New("transport: payload exceeds datagram limit")
)

// MaxDatagram is the largest payload an Endpoint must accept, chosen below
// the 64 KiB UDP limit with room for channel framing. A single MPEG frame
// (≈6 KB at 1.4 Mbps / 30 fps) fits comfortably, matching the paper's
// one-frame-per-message transmission.
const MaxDatagram = 60 * 1024
