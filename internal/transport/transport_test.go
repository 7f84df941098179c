package transport_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/transport"
)

func TestUDPRoundTrip(t *testing.T) {
	a, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan []byte, 1)
	b.SetHandler(func(from transport.Addr, payload []byte) {
		if from != a.Addr() {
			t.Errorf("from = %q, want %q", from, a.Addr())
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		got <- cp
	})

	msg := []byte("hello over udp")
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, msg) {
			t.Fatalf("payload = %q, want %q", p, msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived on loopback")
	}
}

func TestUDPSendAfterClose(t *testing.T) {
	a, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("127.0.0.1:9", []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestUDPOversizedPayload(t *testing.T) {
	a, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := make([]byte, transport.MaxDatagram+1)
	if err := a.Send(a.Addr(), big); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("oversized Send = %v, want ErrTooLarge", err)
	}
}

func TestUDPAdvertiseOverride(t *testing.T) {
	a, err := transport.ListenUDP("127.0.0.1:0", "node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Addr() != "node-a" {
		t.Fatalf("Addr() = %q, want %q", a.Addr(), "node-a")
	}
}

// TestUDPNetworkBindFailure: a failed bind yields a nil Endpoint, not a
// typed nil a caller's `ep != nil` would take for a socket.
func TestUDPNetworkBindFailure(t *testing.T) {
	ep, err := transport.UDPNetwork{}.NewEndpoint("no-port")
	if err == nil || ep != nil {
		t.Fatalf("NewEndpoint(%q) = %v, %v; want nil and an error", "no-port", ep, err)
	}
}

func newSimPair(t *testing.T) (transport.Endpoint, transport.Endpoint, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := netsim.New(clk, 1, netsim.Profile{})
	a, err := net.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	return a, b, clk
}

func TestMuxSeparatesChannels(t *testing.T) {
	a, b, clk := newSimPair(t)
	muxA, muxB := transport.NewMux(a), transport.NewMux(b)

	var mu sync.Mutex
	var gcsGot, videoGot []string
	muxB.Channel(transport.ChannelGCS).SetHandler(func(_ transport.Addr, p []byte) {
		mu.Lock()
		gcsGot = append(gcsGot, string(p))
		mu.Unlock()
	})
	muxB.Channel(transport.ChannelVideo).SetHandler(func(_ transport.Addr, p []byte) {
		mu.Lock()
		videoGot = append(videoGot, string(p))
		mu.Unlock()
	})

	if err := muxA.Channel(transport.ChannelGCS).Send("b", []byte("view")); err != nil {
		t.Fatal(err)
	}
	if err := muxA.Channel(transport.ChannelVideo).Send("b", []byte("frame")); err != nil {
		t.Fatal(err)
	}
	clk.Drain(0)

	if len(gcsGot) != 1 || gcsGot[0] != "view" {
		t.Fatalf("GCS channel got %v, want [view]", gcsGot)
	}
	if len(videoGot) != 1 || videoGot[0] != "frame" {
		t.Fatalf("video channel got %v, want [frame]", videoGot)
	}
}

func TestMuxDropsUnclaimedChannel(t *testing.T) {
	a, _, clk := newSimPair(t)
	muxA := transport.NewMux(a)
	// b has a mux but never claims the video channel.
	if err := muxA.Channel(transport.ChannelVideo).Send("b", []byte("frame")); err != nil {
		t.Fatal(err)
	}
	clk.Drain(0) // must not panic or deliver anywhere
}

func TestMuxChannelIdentity(t *testing.T) {
	a, _, _ := newSimPair(t)
	m := transport.NewMux(a)
	if m.Channel(transport.ChannelGCS) != m.Channel(transport.ChannelGCS) {
		t.Fatal("Channel returned distinct endpoints for the same id")
	}
	if got := m.Channel(transport.ChannelGCS).Addr(); got != "a" {
		t.Fatalf("channel Addr() = %q, want %q", got, "a")
	}
}

func TestMuxChannelCloseDetachesHandler(t *testing.T) {
	a, b, clk := newSimPair(t)
	muxA, muxB := transport.NewMux(a), transport.NewMux(b)
	n := 0
	ch := muxB.Channel(transport.ChannelGCS)
	ch.SetHandler(func(transport.Addr, []byte) { n++ })
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := muxA.Channel(transport.ChannelGCS).Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Drain(0)
	if n != 0 {
		t.Fatalf("closed channel received %d messages, want 0", n)
	}
}

func TestMuxOversizedFrame(t *testing.T) {
	a, _, _ := newSimPair(t)
	m := transport.NewMux(a)
	big := make([]byte, transport.MaxDatagram) // leaves no room for the channel byte
	err := m.Channel(transport.ChannelVideo).Send("b", big)
	if !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("Send = %v, want ErrTooLarge", err)
	}
}

// TestChannelPreframed drives the preframed send path over both kinds of
// endpoint: a StableSender one (netsim), where the receiver sees the sender's
// own backing array, and a plain one, where the channel falls back to Send
// and the receiver sees a copy. Either way the wire layout is the same and
// malformed input is refused before it reaches the endpoint.
func TestChannelPreframed(t *testing.T) {
	for _, plain := range []bool{false, true} {
		a, b, clk := newSimPair(t)
		if plain {
			a = struct{ transport.Endpoint }{a}
		}
		video := transport.NewMux(a).Channel(transport.ChannelVideo)
		pkt := []byte{byte(transport.ChannelVideo), 'f', 'r', 'a', 'm', 'e'}
		got := 0
		transport.NewMux(b).Channel(transport.ChannelVideo).SetHandler(func(_ transport.Addr, p []byte) {
			got++
			if string(p) != "frame" {
				t.Errorf("plain=%v: delivered %q, want %q", plain, p, "frame")
			}
			if aliased := &p[0] == &pkt[1]; aliased == plain {
				t.Errorf("plain=%v: payload aliased = %v", plain, aliased)
			}
		})

		if video.Preframe() != pkt[0] {
			t.Fatalf("Preframe() = %d, want the channel ID %d", video.Preframe(), pkt[0])
		}
		if err := video.SendPreframed("b", pkt); err != nil {
			t.Fatal(err)
		}
		clk.Drain(0)
		if got != 1 {
			t.Fatalf("plain=%v: delivered %d datagrams, want 1", plain, got)
		}

		if err := video.SendPreframed("b", []byte{byte(transport.ChannelGCS), 'x'}); err == nil {
			t.Fatalf("plain=%v: payload with another channel's prefix accepted", plain)
		}
		big := make([]byte, transport.MaxDatagram+1)
		big[0] = video.Preframe()
		if err := video.SendPreframed("b", big); !errors.Is(err, transport.ErrTooLarge) {
			t.Fatalf("plain=%v: oversized payload: err = %v, want ErrTooLarge", plain, err)
		}
	}
}
