package congress

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

var hostileEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// hostileNet is a LAN with a running directory, which knows one live member
// of "g", and the directory channel of a "client" endpoint.
func hostileNet(t *testing.T) (*clock.Virtual, *Directory, transport.Endpoint) {
	t.Helper()
	clk := clock.NewVirtual(hostileEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	d, err := NewDirectory(clk, net, "directory")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	raw, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	d.onPacket("node-1", register("g", "node-1", time.Minute))
	return clk, d, transport.NewMux(raw).Channel(transport.ChannelDirectory)
}

func register(group string, addr transport.Addr, ttl time.Duration) []byte {
	b := wire.AppendU8(nil, kindRegister)
	b = wire.AppendString(b, group)
	b = wire.AppendString(b, string(addr))
	return wire.AppendU64(b, uint64(ttl.Milliseconds()))
}

func resolve(group string, nonce uint64) []byte {
	b := wire.AppendU8(nil, kindResolve)
	b = wire.AppendString(b, group)
	return wire.AppendU64(b, nonce)
}

// retiredKind is a key resolution in the retired kind-4 format,
// raw bytes: kind, group "g", key "feature", count 2, nonce 1.
var retiredKind = []byte{
	4,
	0, 1, 'g',
	0, 7, 'f', 'e', 'a', 't', 'u', 'r', 'e',
	0, 2,
	0, 0, 0, 0, 0, 0, 0, 1,
}

func reply(group string, nonce uint64, count uint16, addrs ...transport.Addr) []byte {
	b := wire.AppendU8(nil, kindReply)
	b = wire.AppendString(b, group)
	b = wire.AppendU64(b, nonce)
	b = wire.AppendU16(b, count)
	for _, a := range addrs {
		b = wire.AppendString(b, string(a))
	}
	return b
}

// wellFormedReply reports whether pkt is a reply a resolver decodes whole.
func wellFormedReply(pkt []byte) bool {
	r := wire.NewReader(pkt)
	if r.U8() != kindReply {
		return false
	}
	r.StringBytes()
	r.U64()
	for n := r.U16(); n > 0; n-- {
		r.StringBytes()
	}
	return r.Done() == nil
}

// FuzzDirectoryOnPacket throws arbitrary datagrams, as if from a client, at
// a directory that knows one member of "g". Whatever arrives, the handler
// returns without panicking and answers with at most one datagram, which is
// a reply a resolver can decode.
func FuzzDirectoryOnPacket(f *testing.F) {
	f.Add(resolve("g", 1))
	f.Add(resolve("nobody", 1))
	f.Add(retiredKind)
	f.Add(retiredKind[:1])
	f.Add(append([]byte{4}, resolve("g", 1)[1:]...))
	f.Add(register("g", "node-2", time.Second))
	f.Add(register("g", "node-2", -time.Second))
	f.Add(register("", "", time.Second))
	f.Add(reply("g", 1, 1, "node-1"))
	f.Add(append(resolve("g", 1), 0))
	f.Add(resolve("g", 1)[:5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		clk, d, client := hostileNet(t)
		var got [][]byte
		client.SetHandler(func(_ transport.Addr, pkt []byte) { got = append(got, append([]byte(nil), pkt...)) })
		d.onPacket(client.Addr(), data)
		clk.Advance(time.Second)
		if len(got) > 1 {
			t.Fatalf("one datagram drew %d replies", len(got))
		}
		if len(got) == 1 && !wellFormedReply(got[0]) {
			t.Fatalf("the directory answered with a malformed reply %x", got[0])
		}
	})
}

// FuzzResolverOnPacket throws arbitrary datagrams, as if from the directory,
// at a resolver with two resolutions in flight (nonces 1 and 2, neither
// retried). Whatever arrives, the handler returns without
// panicking and each resolution's callback runs exactly once.
func FuzzResolverOnPacket(f *testing.F) {
	f.Add(reply("g", 1, 1, "node-1"))
	f.Add(reply("g", 2, 2, "node-1", "node-2"))
	f.Add(reply("g", 1, 0))
	f.Add(reply("other", 1, 1, "node-1"))
	f.Add(reply("g", 3, 1, "node-1"))
	f.Add(reply("g", 1, 0xFFFF))
	f.Add(reply("g", 1, 2, "node-1"))
	f.Add(append(reply("g", 1, 1, "node-1"), 0))
	f.Add(resolve("g", 1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		clk, _, client := hostileNet(t)
		r := NewResolver(clk, client, "nowhere")
		calls := [2]int{}
		r.Resolve("g", 0, func([]transport.Addr) { calls[0]++ })
		r.Resolve("g", 0, func([]transport.Addr) { calls[1]++ })
		r.onPacket("directory", data)
		r.onPacket("directory", data)
		clk.Advance(time.Second)
		if calls != [2]int{1, 1} {
			t.Fatalf("the callbacks ran %v times, want once each", calls)
		}
	})
}

// TestDirectoryIgnoresRetiredKind: a datagram of kind 4, the retired key
// resolution, draws no reply and creates no directory entry, whatever its
// group names.
func TestDirectoryIgnoresRetiredKind(t *testing.T) {
	clk, d, client := hostileNet(t)
	replies := 0
	client.SetHandler(func(transport.Addr, []byte) { replies++ })
	for _, pkt := range [][]byte{
		retiredKind,
		append([]byte{4}, resolve("g", 1)[1:]...),
		append([]byte{4}, register("h", "node-2", time.Minute)[1:]...),
	} {
		d.onPacket(client.Addr(), pkt)
	}
	clk.Advance(time.Second)
	if replies != 0 {
		t.Fatalf("kind-4 datagrams drew %d replies, want none", replies)
	}
	d.mu.Lock()
	groups := len(d.entries)
	d.mu.Unlock()
	if groups != 1 || len(d.Members("g")) != 1 {
		t.Fatalf("kind-4 datagrams changed the directory: %d groups, members of g %v", groups, d.Members("g"))
	}
}

// TestResolverRefusesOversizedCount: a reply's address count is a u16 off the
// wire. A 13-byte forgery claiming 65,535 addresses must be dropped before
// the resolver reserves room for them (1 MiB of slice header per datagram).
func TestResolverRefusesOversizedCount(t *testing.T) {
	clk, _, client := hostileNet(t)
	r := NewResolver(clk, client, "nowhere")
	forged := reply("", 1, 0xFFFF)
	if len(forged) != 13 {
		t.Fatalf("the forgery is %d bytes, want 13", len(forged))
	}
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		r.onPacket("directory", forged)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 4<<10 {
		t.Fatalf("a 13-byte forged reply allocated %d bytes, want under 4 KiB", per)
	}
}

// TestResolveBackoffSpreads observes the retry schedule against a deaf
// directory: each retry waits roughly twice as long as the previous one
// (plus jitter) until the cap, so partitioned clients cannot synchronize
// their lookup storms.
func TestResolveBackoffSpreads(t *testing.T) {
	clk := clock.NewVirtual(hostileEpoch)
	net := netsim.New(clk, 1, netsim.LAN())
	deaf, err := net.NewEndpoint("directory")
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Time
	deaf.SetHandler(func(transport.Addr, []byte) { arrivals = append(arrivals, clk.Now()) })

	raw, err := net.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	resolver := NewResolver(clk, transport.NewMux(raw).Channel(transport.ChannelDirectory), "directory")
	done := false
	resolver.Resolve("g", 5, func([]transport.Addr) { done = true })
	clk.Advance(30 * time.Second)

	if !done {
		t.Fatal("resolution never gave up")
	}
	if len(arrivals) != 6 {
		t.Fatalf("directory saw %d requests, want 6 (initial + 5 retries)", len(arrivals))
	}
	var gaps []time.Duration
	for i := 1; i < len(arrivals); i++ {
		gaps = append(gaps, arrivals[i].Sub(arrivals[i-1]))
	}
	// Doubling with ≤25% jitter: successive gaps strictly grow until the
	// cap; every gap sits in [base, cap+25%].
	for i := 0; i+1 < 3; i++ {
		if gaps[i+1] <= gaps[i] {
			t.Errorf("gap %d (%v) did not grow over gap %d (%v)", i+1, gaps[i+1], i, gaps[i])
		}
	}
	for i, g := range gaps {
		if g < resolveRetryBase || g > resolveRetryCap+resolveRetryCap/4 {
			t.Errorf("gap %d = %v outside [%v, %v]", i, g,
				resolveRetryBase, resolveRetryCap+resolveRetryCap/4)
		}
	}
}
