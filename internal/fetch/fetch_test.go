package fetch_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fetch"
	"repro/internal/mpeg"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type node struct {
	fetchOut transport.Endpoint // bulk (requests out / provider in)
	replyIn  transport.Endpoint // bulk-reply (chunks in / provider out)
}

func newNode(t *testing.T, net *netsim.Network, addr transport.Addr) node {
	t.Helper()
	raw, err := net.NewEndpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux(raw)
	return node{
		fetchOut: mux.Channel(transport.ChannelBulk),
		replyIn:  mux.Channel(transport.ChannelBulkReply),
	}
}

func fetchRig(t *testing.T, prof netsim.Profile, movieDur time.Duration) (*clock.Virtual, *fetch.Fetcher, *mpeg.Movie) {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 7, prof)

	movie := mpeg.Generate("feature", mpeg.StreamConfig{Duration: movieDur, Seed: 5})
	cat := store.NewCatalog()
	cat.Add(movie)
	prov := newNode(t, net, "provider")
	fetch.NewProvider(cat, prov.fetchOut, prov.replyIn, nil)

	cli := newNode(t, net, "getter")
	return clk, fetch.NewFetcher(clk, cli.fetchOut, cli.replyIn, nil), movie
}

func TestFetchRoundTrip(t *testing.T) {
	// A two-hour movie: ~216k frames ≈ 1 MB serialized ≈ 34 chunks.
	clk, f, movie := fetchRig(t, netsim.LAN(), 2*time.Hour)
	var got *mpeg.Movie
	var gotErr error
	if err := f.Fetch("feature", "provider", func(m *mpeg.Movie, err error) {
		got, gotErr = m, err
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got == nil {
		t.Fatal("fetch never completed")
	}
	if got.TotalFrames() != movie.TotalFrames() || got.TotalBytes() != movie.TotalBytes() {
		t.Fatalf("fetched movie differs: %v vs %v", got, movie)
	}
}

func TestFetchUnderLoss(t *testing.T) {
	prof := netsim.LAN()
	prof.Loss = 0.15 // brutal; stop-and-wait retries must push through
	clk, f, movie := fetchRig(t, prof, 10*time.Minute)
	var got *mpeg.Movie
	var gotErr error
	if err := f.Fetch("feature", "provider", func(m *mpeg.Movie, err error) {
		got, gotErr = m, err
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(60 * time.Second)
	if gotErr != nil || got == nil {
		t.Fatalf("fetch under loss: %v, %v", got, gotErr)
	}
	if got.TotalBytes() != movie.TotalBytes() {
		t.Fatal("fetched movie corrupted under loss")
	}
}

func TestFetchNotFound(t *testing.T) {
	clk, f, _ := fetchRig(t, netsim.LAN(), time.Minute)
	var gotErr error
	called := false
	if err := f.Fetch("no-such-movie", "provider", func(m *mpeg.Movie, err error) {
		called, gotErr = true, err
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if !called || gotErr == nil {
		t.Fatalf("not-found: called=%v err=%v", called, gotErr)
	}
	if !strings.Contains(gotErr.Error(), "does not hold") {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestFetchDeadPeerTimesOut(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	net := netsim.New(clk, 1, netsim.LAN())
	if _, err := net.NewEndpoint("ghost"); err != nil { // bound but silent
		t.Fatal(err)
	}
	cli := newNode(t, net, "getter")
	f := fetch.NewFetcher(clk, cli.fetchOut, cli.replyIn, nil)
	var gotErr error
	if err := f.Fetch("feature", "ghost", func(m *mpeg.Movie, err error) { gotErr = err }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	if gotErr == nil {
		t.Fatal("fetch from a dead peer never failed")
	}
	// The fetcher must be reusable after a failure.
	if err := f.Fetch("feature", "ghost", func(*mpeg.Movie, error) {}); err != nil {
		t.Fatalf("fetcher not reusable: %v", err)
	}
}

// TestFetchRedirect: a transfer stuck on a peer that does not exist,
// redirected to a live one, completes there at once instead of waiting out its retries.
func TestFetchRedirect(t *testing.T) {
	clk, f, movie := fetchRig(t, netsim.LAN(), 5*time.Second)
	var got *mpeg.Movie
	var gotErr error
	if err := f.Fetch("feature", "ghost", func(m *mpeg.Movie, err error) { got, gotErr = m, err }); err != nil {
		t.Fatal(err)
	}
	f.Redirect([]transport.Addr{"ghost"}) // its own peer is live: nothing moves
	clk.Advance(time.Second)
	if got != nil || gotErr != nil {
		t.Fatalf("fetch from a peer that does not exist ended: movie %v, err %v", got != nil, gotErr)
	}
	f.Redirect([]transport.Addr{"provider"})
	clk.Advance(time.Second)
	if gotErr != nil || got == nil {
		t.Fatalf("redirected fetch: movie %v, err %v", got != nil, gotErr)
	}
	if got.TotalFrames() != movie.TotalFrames() {
		t.Fatalf("fetched %d frames, want %d", got.TotalFrames(), movie.TotalFrames())
	}
}

func TestFetchOneAtATime(t *testing.T) {
	clk, f, _ := fetchRig(t, netsim.LAN(), time.Minute)
	if err := f.Fetch("feature", "provider", func(*mpeg.Movie, error) {}); err != nil {
		t.Fatal(err)
	}
	if err := f.Fetch("feature", "provider", func(*mpeg.Movie, error) {}); err == nil {
		t.Fatal("second concurrent Fetch accepted")
	}
	clk.Advance(5 * time.Second)
}
