// HA counter: the paper's closing claim (§8) is that "the concepts
// demonstrated in this work are general, and may be exploited to construct
// a variety of highly available servers". This example builds a different
// highly-available service on the same group communication substrate: a
// replicated counter (a tiny replicated state machine).
//
// Every replica applies the increments delivered by FIFO multicast.
// Increments commute, so replicas that deliver the same set of them in each
// view — which virtual synchrony guarantees the survivors of a view change —
// hold the same total, whichever replica a client talks to and across
// replica crashes. No total order is needed.
package main

import (
	"fmt"
	"log"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/gcs"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// replica is one member of the highly-available counter service.
type replica struct {
	id     string
	member *gcs.Member

	mu      sync.Mutex
	value   int64
	applied int
	view    gcs.View
}

func newReplica(clk clock.Clock, network transport.Network, id string, contacts ...gcs.ProcessID) (*replica, error) {
	ep, err := network.NewEndpoint(transport.Addr(id))
	if err != nil {
		return nil, err
	}
	proc := gcs.NewProcess(gcs.Config{Clock: clk, Endpoint: ep})
	r := &replica{id: id}
	m, err := proc.Join("ha.counter", gcs.Handlers{
		OnView: func(v gcs.View) {
			r.mu.Lock()
			r.view = v
			r.mu.Unlock()
		},
		OnMessage: func(_ string, _ gcs.ProcessID, payload []byte) {
			delta, err := strconv.ParseInt(string(payload), 10, 64)
			if err != nil {
				return
			}
			r.mu.Lock()
			r.value += delta
			r.applied++
			r.mu.Unlock()
		},
	}, contacts...)
	if err != nil {
		return nil, err
	}
	r.member = m
	return r, nil
}

// Add multicasts an increment to the group: every replica in the view
// applies it exactly once.
func (r *replica) Add(delta int64) error {
	return r.member.Multicast([]byte(strconv.FormatInt(delta, 10)))
}

func (r *replica) state() (int64, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.value, r.applied, len(r.view.Members)
}

func main() {
	clk := clock.NewVirtual(time.Now())
	network := netsim.New(clk, 23, netsim.LAN())

	ids := []string{"replica-1", "replica-2", "replica-3"}
	replicas := make([]*replica, 0, len(ids))
	for _, id := range ids {
		rep, err := newReplica(clk, network, id, gcs.ProcessID(ids[0]))
		if err != nil {
			log.Fatal(err)
		}
		replicas = append(replicas, rep)
	}
	clk.Advance(2 * time.Second) // group forms

	// Concurrent increments from different replicas: each replica may apply
	// them in its own order, and all reach the same total.
	for i := 0; i < 10; i++ {
		if err := replicas[i%3].Add(int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	for _, rep := range replicas {
		v, n, members := rep.state()
		fmt.Printf("%s: value=%d applied=%d view=%d members\n", rep.id, v, n, members)
	}

	// Crash the coordinator; the service keeps accepting operations.
	fmt.Println("\ncrashing replica-1 ...")
	network.Crash("replica-1")
	clk.Advance(3 * time.Second)
	for i := 10; i < 15; i++ {
		if err := replicas[1+i%2].Add(int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second)
	for _, rep := range replicas[1:] {
		v, n, members := rep.state()
		fmt.Printf("%s: value=%d applied=%d view=%d members\n", rep.id, v, n, members)
	}
	fmt.Println("\nsurvivors agree — the same substrate that keeps movies",
		"playing keeps any replicated service consistent (§8).")
}
