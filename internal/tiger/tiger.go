// Package tiger is a simplified reimplementation of the Microsoft Tiger
// video file server's delivery architecture [Bolosky et al., NOSSDAV'96 /
// SOSP'97] — the availability baseline the paper compares against in §7.
//
// Tiger stripes every movie across all servers ("cubs") and mirrors each
// block on the next servers in stripe order (declustered mirroring). A
// global schedule makes the cub owning a block transmit it at its display
// slot; when a cub fails, the mirrors of its blocks take over. The
// architecture thus smoothly tolerates ONE cub failure, but a second
// failure hitting an adjacent cub leaves blocks with no live copy — unlike
// the paper's replication-k design, which tolerates any k−1 failures.
//
// The model here keeps exactly the properties that comparison measures:
// striping, chained mirroring, schedule-driven transmission, and
// heartbeat-based failover between mirror chains. It deliberately omits
// Tiger's disk scheduling and network fan-in, which are orthogonal to the
// availability question.
package tiger

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mpeg"
	"repro/internal/transport"
)

// Config configures a Tiger service.
type Config struct {
	Clock   clock.Clock
	Network transport.Network
	// Cubs are the striped servers, in stripe order.
	Cubs []string
	// Movie is the striped content.
	Movie *mpeg.Movie
}

// heartbeatInterval / suspectTimeout drive cub failure detection, matching
// the VoD service's detector. mirrors is the number of copies of each
// frame: the owner plus one chained successor, Tiger's mirroring.
const (
	heartbeatInterval = 100 * time.Millisecond
	suspectTimeout    = 500 * time.Millisecond
	mirrors           = 2
)

func (c *Config) validate() error {
	if c.Clock == nil || c.Network == nil || c.Movie == nil {
		return fmt.Errorf("tiger: Clock, Network and Movie are required")
	}
	if len(c.Cubs) < 2 {
		return fmt.Errorf("tiger: need at least 2 cubs, got %d", len(c.Cubs))
	}
	return nil
}

// Service is a running Tiger deployment.
type Service struct {
	cfg     Config
	packets *mpeg.PacketTable // the movie's frames, shared by every cub
	mu      sync.Mutex
	cubs    map[string]*cub
}

// New builds and starts the cubs.
func New(cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	svc := &Service{cfg: cfg, packets: cfg.Movie.Packets(0), cubs: make(map[string]*cub, len(cfg.Cubs))}
	for i, id := range cfg.Cubs {
		ep, err := cfg.Network.NewEndpoint(transport.Addr(id))
		if err != nil {
			return nil, fmt.Errorf("tiger: cub %s: %w", id, err)
		}
		c := &cub{
			svc:       svc,
			id:        id,
			index:     i,
			ep:        ep,
			lastHeard: make(map[string]time.Time),
			streams:   make(map[transport.Addr]*stream),
		}
		ep.SetHandler(c.onPacket)
		c.hbTask.Start(cfg.Clock, heartbeatInterval, heartbeatInterval, c.heartbeat)
		svc.cubs[id] = c
	}
	return svc, nil
}

// StartStream makes every cub begin the schedule for one client from
// frame 0 at the movie's frame rate. (Tiger's schedule slots; all cubs
// share the clock, so their frame counters advance in lockstep.)
func (s *Service) StartStream(clientAddr transport.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.cubs {
		c.startStream(clientAddr)
	}
}

// CrashCub fail-stops one cub: its schedule and heartbeats halt and its
// endpoint closes, so peers see silence and fail its blocks over.
func (s *Service) CrashCub(id string) {
	s.mu.Lock()
	c := s.cubs[id]
	delete(s.cubs, id)
	s.mu.Unlock()
	if c != nil {
		c.stop()
	}
}

// Stop halts every cub.
func (s *Service) Stop() {
	s.mu.Lock()
	cubs := s.cubs
	s.cubs = map[string]*cub{}
	s.mu.Unlock()
	for _, c := range cubs {
		c.stop()
	}
}

// cub is one striped server.
type cub struct {
	svc   *Service
	id    string
	index int
	ep    transport.Endpoint

	mu        sync.Mutex
	stopped   bool
	lastHeard map[string]time.Time
	streams   map[transport.Addr]*stream
	hbTask    clock.Periodic
}

type stream struct {
	next uint32
	task clock.Periodic
}

func (c *cub) startStream(clientAddr transport.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if _, ok := c.streams[clientAddr]; ok {
		return
	}
	st := &stream{}
	period := time.Second / time.Duration(c.svc.cfg.Movie.FPS())
	st.task.Start(c.svc.cfg.Clock, period, period, func() { c.slot(clientAddr, st) })
	c.streams[clientAddr] = st
}

// slot is one schedule slot: transmit the frame if this cub is the first
// live holder in its mirror chain.
func (c *cub) slot(clientAddr transport.Addr, st *stream) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	movie := c.svc.cfg.Movie
	frame := st.next
	st.next++
	if int(frame) >= movie.TotalFrames() {
		st.task.Stop()
		delete(c.streams, clientAddr)
		c.mu.Unlock()
		return
	}
	responsible := c.responsibleLocked(int(frame))
	if responsible != c.index {
		c.mu.Unlock()
		return
	}
	// Past its prefix byte a table packet is the encoded Frame message.
	_ = c.ep.Send(clientAddr, c.svc.packets.Packet(int(frame))[1:])
	c.mu.Unlock()
}

// responsibleLocked returns the index of the first cub in the frame's
// mirror chain this cub believes is alive, or -1 if the whole chain is
// dead (the frame is lost — Tiger's two-adjacent-failure hole).
func (c *cub) responsibleLocked(frame int) int {
	n := len(c.svc.cfg.Cubs)
	owner := frame % n
	now := c.svc.cfg.Clock.Now()
	for m := 0; m < mirrors; m++ {
		idx := (owner + m) % n
		if idx == c.index {
			return idx // we are alive by definition
		}
		heard, ok := c.lastHeard[c.svc.cfg.Cubs[idx]]
		if !ok || now.Sub(heard) < suspectTimeout {
			// Alive, or never heard from (startup grace): assume alive.
			return idx
		}
	}
	return -1
}

// heartbeatMsg is every heartbeat's payload; Send copies it, so one slice
// serves every beat.
var heartbeatMsg = []byte{1}

// heartbeat tells every other cub this one is alive. The cub list is
// immutable, so a beat walks it unlocked and allocates nothing.
func (c *cub) heartbeat() {
	c.mu.Lock()
	stopped := c.stopped
	c.mu.Unlock()
	if stopped {
		return
	}
	for _, id := range c.svc.cfg.Cubs {
		if id != c.id {
			_ = c.ep.Send(transport.Addr(id), heartbeatMsg)
		}
	}
}

func (c *cub) onPacket(from transport.Addr, _ []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastHeard[string(from)] = c.svc.cfg.Clock.Now()
}

func (c *cub) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	c.hbTask.Stop()
	for _, st := range c.streams {
		st.task.Stop()
	}
	c.streams = map[transport.Addr]*stream{}
	_ = c.ep.Close()
}
