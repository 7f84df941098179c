package tiger

import (
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Receiver is the minimal Tiger client: it feeds arriving frames through
// the same two-level buffer pipeline the VoD client uses (so skipped/late
// accounting is directly comparable) and displays at the movie rate.
// Tiger has no client feedback loop — the schedule pushes at exactly the
// display rate — so there is no flow control here.
type Receiver struct {
	ep       transport.Endpoint
	pipeline *buffer.Pipeline
	task     clock.Periodic
	frameIn  wire.Frame // onPacket's decode target: the movie string is kept across frames
}

// NewReceiver binds the client endpoint and starts displaying at fps.
func NewReceiver(clk clock.Clock, network transport.Network, addr transport.Addr, fps int) (*Receiver, error) {
	ep, err := network.NewEndpoint(addr)
	if err != nil {
		return nil, fmt.Errorf("tiger: receiver %s: %w", addr, err)
	}
	r := &Receiver{
		ep:       ep,
		pipeline: buffer.New(buffer.DefaultConfig()),
	}
	ep.SetHandler(r.onPacket)
	period := time.Second / time.Duration(fps)
	r.task.Start(clk, period, period, clock.Func(func() { r.pipeline.Tick() }))
	return r, nil
}

func (r *Receiver) onPacket(_ transport.Addr, payload []byte) {
	f := &r.frameIn
	if wire.DecodeFrameInto(f, payload) != nil {
		return
	}
	r.pipeline.Insert(buffer.FrameMeta{Index: f.Index, Class: f.Class, Size: len(f.Payload)})
}

// Counters exposes the pipeline counters for comparison with the VoD
// client.
func (r *Receiver) Counters() buffer.Counters { return r.pipeline.Counters() }

// Close stops the receiver.
func (r *Receiver) Close() {
	r.task.Stop()
	_ = r.ep.Close()
}
