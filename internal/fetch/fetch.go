// Package fetch is the "separate mechanism for replicating the video
// material" the paper assumes (§3, footnote): a chunked movie-transfer
// protocol over the same unreliable datagrams as everything else. A server
// brought up on the fly (§7: "a new server can be brought up without any
// special preparations") fetches the movies it should serve from any peer
// that has them, then joins their movie groups.
//
// The protocol is stop-and-wait per chunk with timeout retries — movies are
// stored as structure only (≈5 bytes/frame; a two-hour feature is ≈1 MB),
// so transfer time is irrelevant next to streaming. Providers are
// stateless: every chunk request is answered from the catalog.
package fetch

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// chunkSize is the transfer unit; comfortably under the datagram limit.
const chunkSize = 32 * 1024

// maxChunks is enough chunks for the largest movie file mpeg.Parse accepts.
const maxChunks = (mpeg.MaxFileSize + chunkSize - 1) / chunkSize

// Message kinds on the bulk channel.
const (
	kindChunkReq uint8 = iota + 1
	kindChunkResp
	kindNotFound
)

// Provider answers chunk requests from a catalog. Requests arrive on in
// (the bulk channel); chunks go back out on out (the bulk-reply channel),
// where the requesting Fetcher listens.
type Provider struct {
	catalog *store.Catalog
	in      transport.Endpoint
	out     transport.Endpoint

	ctrServed   *obs.Counter // fetch.chunks_served
	ctrNotFound *obs.Counter // fetch.not_found

	mu      sync.Mutex
	scratch []byte // reusable response buffer, guarded by mu
}

// NewProvider starts serving the catalog's movies. reg (nil ok) receives
// the provider-side fetch.* counters.
func NewProvider(catalog *store.Catalog, in, out transport.Endpoint, reg *obs.Registry) *Provider {
	p := &Provider{
		catalog:     catalog,
		in:          in,
		out:         out,
		ctrServed:   reg.Counter("fetch.chunks_served"),
		ctrNotFound: reg.Counter("fetch.not_found"),
	}
	in.SetHandler(p.onPacket)
	return p
}

func (p *Provider) onPacket(from transport.Addr, payload []byte) {
	r := wire.NewReader(payload)
	if r.U8() != kindChunkReq {
		return
	}
	reqID := r.U64()
	movieID := r.String()
	chunk := int(r.U32())
	if r.Done() != nil {
		return
	}

	m, err := p.catalog.Get(movieID)
	if err != nil {
		p.ctrNotFound.Inc()
		p.mu.Lock()
		resp := wire.AppendU8(p.scratch[:0], kindNotFound)
		resp = wire.AppendU64(resp, reqID)
		resp = wire.AppendString(resp, movieID)
		p.scratch = resp[:0]
		_ = p.out.Send(from, resp)
		p.mu.Unlock()
		return
	}
	data := m.File()
	total := (len(data) + chunkSize - 1) / chunkSize
	if chunk < 0 || chunk >= total {
		return
	}
	lo := chunk * chunkSize
	hi := lo + chunkSize
	if hi > len(data) {
		hi = len(data)
	}
	// Responses are framed into a reusable scratch buffer; Send does not
	// retain the payload, so the buffer is free again once it returns.
	p.mu.Lock()
	resp := wire.AppendU8(p.scratch[:0], kindChunkResp)
	resp = wire.AppendU64(resp, reqID)
	resp = wire.AppendString(resp, movieID)
	resp = wire.AppendU32(resp, uint32(chunk))
	resp = wire.AppendU32(resp, uint32(total))
	resp = wire.AppendBytes(resp, data[lo:hi])
	p.scratch = resp[:0]
	p.ctrServed.Inc()
	_ = p.out.Send(from, resp)
	p.mu.Unlock()
}

// Fetcher retrieves movies from providers: requests go out on out (the
// bulk channel, where Providers listen); chunks arrive on in (the
// bulk-reply channel). One outstanding transfer at a time per Fetcher; the
// VoD server fetches sequentially at startup.
type Fetcher struct {
	clk clock.Clock
	out transport.Endpoint
	in  transport.Endpoint

	obs         *obs.Registry
	ctrRequests *obs.Counter // fetch.requests_sent
	ctrRetries  *obs.Counter // fetch.chunk_retries
	ctrFetched  *obs.Counter // fetch.movies_fetched
	ctrFailed   *obs.Counter // fetch.failures

	mu      sync.Mutex
	nextID  uint64
	current *transfer
	reqBuf  []byte // reusable request buffer, guarded by mu
}

type transfer struct {
	id       uint64
	movie    string
	peer     transport.Addr
	data     []byte // the chunks received so far, back to back
	total    int    // -1 until the first response arrives
	next     int
	retries  int
	timer    clock.Timer
	callback func(*mpeg.Movie, error)
}

// NewFetcher wires a fetcher to its request/reply channels (it takes over
// in's inbound handler). reg (nil ok) receives the fetcher-side fetch.*
// counters and trace events.
func NewFetcher(clk clock.Clock, out, in transport.Endpoint, reg *obs.Registry) *Fetcher {
	f := &Fetcher{
		clk:         clk,
		out:         out,
		in:          in,
		obs:         reg,
		ctrRequests: reg.Counter("fetch.requests_sent"),
		ctrRetries:  reg.Counter("fetch.chunk_retries"),
		ctrFetched:  reg.Counter("fetch.movies_fetched"),
		ctrFailed:   reg.Counter("fetch.failures"),
	}
	in.SetHandler(f.onPacket)
	return f
}

// maxChunkRetries bounds per-chunk retransmissions before the transfer
// fails (the caller then tries another peer).
const maxChunkRetries = 20

// Fetch retrieves movieID from peer, invoking callback exactly once with
// the movie or an error. Only one Fetch may be in flight per Fetcher.
func (f *Fetcher) Fetch(movieID string, peer transport.Addr, callback func(*mpeg.Movie, error)) error {
	f.mu.Lock()
	if f.current != nil {
		f.mu.Unlock()
		return fmt.Errorf("fetch: transfer of %q already in flight", f.current.movie)
	}
	f.nextID++
	tr := &transfer{
		id:       f.nextID,
		movie:    movieID,
		peer:     peer,
		total:    -1,
		callback: callback,
	}
	f.current = tr
	f.mu.Unlock()
	f.requestChunk(tr)
	return nil
}

// Redirect moves a transfer in flight from a peer not in live to live[0]:
// it starts over from the first chunk there at once, with fresh retries. A
// caller that learns which peers are live need not wait out a dead one's
// timeout.
func (f *Fetcher) Redirect(live []transport.Addr) {
	f.mu.Lock()
	tr := f.current
	if tr == nil || len(live) == 0 || slices.Contains(live, tr.peer) {
		f.mu.Unlock()
		return
	}
	peer := live[0]
	if tr.timer != nil {
		tr.timer.Stop()
	}
	f.obs.Event("fetch.redirect", tr.movie+" from "+string(tr.peer)+" to "+string(peer))
	tr.peer, tr.data, tr.total, tr.next, tr.retries = peer, tr.data[:0], -1, 0, 0
	f.mu.Unlock()
	f.requestChunk(tr)
}

func (f *Fetcher) requestChunk(tr *transfer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	req := wire.AppendU8(f.reqBuf[:0], kindChunkReq)
	req = wire.AppendU64(req, tr.id)
	req = wire.AppendString(req, tr.movie)
	req = wire.AppendU32(req, uint32(tr.next))
	f.reqBuf = req[:0]
	f.ctrRequests.Inc()
	_ = f.out.Send(tr.peer, req)

	if f.current != tr {
		return
	}
	tr.timer = f.clk.AfterFunc(300*time.Millisecond, func() {
		f.mu.Lock()
		if f.current != tr {
			f.mu.Unlock()
			return
		}
		tr.retries++
		f.ctrRetries.Inc()
		if tr.retries > maxChunkRetries {
			f.current = nil
			cb := tr.callback
			f.mu.Unlock()
			f.ctrFailed.Inc()
			f.obs.Event("fetch.fail", tr.movie+" from "+string(tr.peer)+": timeout")
			cb(nil, fmt.Errorf("fetch: %q from %s: no response after %d retries", tr.movie, tr.peer, maxChunkRetries))
			return
		}
		f.mu.Unlock()
		f.requestChunk(tr)
	})
}

func (f *Fetcher) onPacket(from transport.Addr, payload []byte) {
	r := wire.NewReader(payload)
	kind := r.U8()
	reqID := r.U64()
	movieID := r.String()
	if r.Err() != nil {
		return
	}

	f.mu.Lock()
	tr := f.current
	if tr == nil || tr.id != reqID || tr.movie != movieID || from != tr.peer {
		f.mu.Unlock()
		return
	}

	if kind == kindNotFound {
		f.current = nil
		if tr.timer != nil {
			tr.timer.Stop()
		}
		cb := tr.callback
		f.mu.Unlock()
		f.ctrFailed.Inc()
		cb(nil, fmt.Errorf("fetch: peer %s does not hold %q", from, movieID))
		return
	}
	if kind != kindChunkResp {
		f.mu.Unlock()
		return
	}
	chunk := int(r.U32())
	total := int(r.U32())
	data := r.Bytes()
	// The first response fixes the length, at most maxChunks; a response
	// that changes it or overfills its chunk is malformed and dropped.
	if r.Done() != nil || chunk != tr.next || len(data) > chunkSize ||
		total <= 0 || total > maxChunks || (tr.total >= 0 && total != tr.total) {
		f.mu.Unlock()
		return
	}
	if tr.timer != nil {
		tr.timer.Stop()
	}
	tr.total = total
	tr.retries = 0
	tr.data = append(tr.data, data...)
	tr.next++

	if tr.next < tr.total {
		f.mu.Unlock()
		f.requestChunk(tr)
		return
	}

	// Complete: unreachable from onPacket now, so parsed in place unlocked.
	f.current = nil
	cb := tr.callback
	f.mu.Unlock()

	movie, err := mpeg.Parse(tr.data)
	if err != nil {
		f.ctrFailed.Inc()
		cb(nil, fmt.Errorf("fetch: %q from %s corrupt: %w", movieID, from, err))
		return
	}
	f.ctrFetched.Inc()
	f.obs.Event("fetch.done", movieID+" from "+string(from))
	cb(movie, nil)
}
