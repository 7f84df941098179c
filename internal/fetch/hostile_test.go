package fetch

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// hostileNet is a LAN with a provider and a getter; the getter counts the
// datagrams that reach it.
func hostileNet(t *testing.T) (clk *clock.Virtual, prov, get transport.Endpoint, got *int) {
	t.Helper()
	clk = clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	prov, err := net.NewEndpoint("provider")
	if err != nil {
		t.Fatal(err)
	}
	if get, err = net.NewEndpoint("getter"); err != nil {
		t.Fatal(err)
	}
	got = new(int)
	get.SetHandler(func(transport.Addr, []byte) { *got++ })
	return clk, prov, get, got
}

func chunkReq(reqID uint64, movie string, chunk uint32) []byte {
	b := wire.AppendU8(nil, kindChunkReq)
	b = wire.AppendU64(b, reqID)
	b = wire.AppendString(b, movie)
	return wire.AppendU32(b, chunk)
}

func chunkResp(reqID uint64, movie string, chunk, total uint32, data []byte) []byte {
	b := wire.AppendU8(nil, kindChunkResp)
	b = wire.AppendU64(b, reqID)
	b = wire.AppendString(b, movie)
	b = wire.AppendU32(b, chunk)
	b = wire.AppendU32(b, total)
	return wire.AppendBytes(b, data)
}

// FuzzProviderOnPacket throws arbitrary datagrams at a provider holding one
// title. Whatever arrives, the handler returns without panicking and
// answers with at most one datagram.
func FuzzProviderOnPacket(f *testing.F) {
	f.Add(chunkReq(1, "m", 0))
	f.Add(chunkReq(1, "m", 1<<31))
	f.Add(chunkReq(7, "no-such-movie", 0))
	f.Add(chunkReq(1, "m", 0)[:5])
	f.Add(append(chunkReq(1, "m", 0), 0))
	f.Add(chunkResp(1, "m", 0, 1, []byte("x")))
	f.Add([]byte{})

	cat := store.NewCatalog()
	cat.Add(mpeg.Generate("m", mpeg.StreamConfig{Duration: time.Second, Seed: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		clk, prov, get, got := hostileNet(t)
		p := NewProvider(cat, prov, prov, nil)
		p.onPacket(get.Addr(), data)
		clk.Advance(time.Second)
		if *got > 1 {
			t.Fatalf("one request drew %d replies", *got)
		}
	})
}

// FuzzFetcherOnPacket throws arbitrary datagrams, as if from the provider,
// at a fetcher with a transfer of "m" in flight. Whatever arrives, the
// handler returns without panicking, the transfer's callback runs at most
// once, and a movie it hands over is one the decoder accepted.
func FuzzFetcherOnPacket(f *testing.F) {
	file := mpeg.Generate("m", mpeg.StreamConfig{Duration: time.Second, Seed: 1}).File()
	f.Add(chunkResp(1, "m", 0, 1, file))
	f.Add(chunkResp(1, "m", 0, 1, file[:len(file)/2]))
	f.Add(chunkResp(1, "m", 0, 2, file))
	f.Add(chunkResp(1, "m", 1, 1, file))
	f.Add(chunkResp(2, "m", 0, 1, file))
	f.Add(chunkResp(1, "other", 0, 1, file))
	f.Add(chunkResp(1, "m", 0, 0, nil))
	f.Add(append(wire.AppendU64([]byte{kindNotFound}, 1), wire.AppendString(nil, "m")...))
	f.Add(chunkReq(1, "m", 0))
	f.Add([]byte{})
	f.Add(chunkResp(1, "m", 0, 1<<31, file))
	f.Add(chunkResp(1, "m", 0, uint32(maxChunks+1), file))
	f.Add(chunkResp(1, "m", 0, 2, make([]byte, chunkSize+1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		clk, prov, get, _ := hostileNet(t)
		fe := NewFetcher(clk, get, get, nil)
		calls := 0
		if err := fe.Fetch("m", prov.Addr(), func(m *mpeg.Movie, err error) {
			calls++
			if (m == nil) == (err == nil) {
				t.Fatalf("callback got movie %v and error %v", m, err)
			}
			if m != nil && m.ID() == "" {
				t.Fatal("callback got a movie with no ID")
			}
		}); err != nil {
			t.Fatal(err)
		}
		fe.onPacket(prov.Addr(), data)
		fe.onPacket(prov.Addr(), data)
		clk.Advance(time.Second)
		if calls > 1 {
			t.Fatalf("transfer callback ran %d times", calls)
		}
	})
}

// TestFetcherBoundsTransfer: a provider's responses cannot make a transfer
// longer than the largest movie file, change its length once the first
// response has fixed it, or land more than chunkSize bytes per chunk. Such
// a response is dropped: the fetcher asks for the same chunk again and, when
// the peer never answers well, fails the transfer.
func TestFetcherBoundsTransfer(t *testing.T) {
	cases := []struct {
		name      string
		responses [][]byte
		wantMax   uint32 // the furthest chunk the fetcher may ask for
	}{
		{"total of 2^31", [][]byte{chunkResp(1, "m", 0, 1<<31, []byte("x"))}, 0},
		{"total past the largest movie", [][]byte{chunkResp(1, "m", 0, uint32(maxChunks+1), []byte("x"))}, 0},
		{"total raised mid-transfer", [][]byte{
			chunkResp(1, "m", 0, 2, []byte("x")),
			chunkResp(1, "m", 1, 3, []byte("x")),
		}, 1},
		{"chunk longer than chunkSize", [][]byte{chunkResp(1, "m", 0, 2, make([]byte, chunkSize+1))}, 0},
	}
	for _, tc := range cases {
		clk, prov, get, _ := hostileNet(t)
		var asked uint32
		prov.SetHandler(func(_ transport.Addr, req []byte) {
			r := wire.NewReader(req[1+8:]) // past kind and request ID
			_ = r.String()
			asked = max(asked, r.U32())
		})
		fe := NewFetcher(clk, get, get, nil)
		var gotErr error
		calls := 0
		if err := fe.Fetch("m", prov.Addr(), func(_ *mpeg.Movie, err error) { calls, gotErr = calls+1, err }); err != nil {
			t.Fatal(err)
		}
		for _, resp := range tc.responses {
			fe.onPacket(prov.Addr(), resp)
			clk.Advance(10 * time.Millisecond)
		}
		if asked != tc.wantMax {
			t.Errorf("%s: fetcher asked for chunk %d, want at most %d", tc.name, asked, tc.wantMax)
		}
		clk.Advance(10 * time.Second)
		if calls != 1 || gotErr == nil {
			t.Errorf("%s: transfer ended with %d callbacks, error %v; want one failure", tc.name, calls, gotErr)
		}
	}
}
