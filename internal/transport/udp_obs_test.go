package transport_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestUDPCloseSendSetHandlerRace drives Send, SetHandler and Close
// concurrently; under -race this guards the endpoint's lifecycle
// locking (the satellite fix for the read-loop hot spin sits on the
// same paths).
func TestUDPCloseSendSetHandlerRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		reg := obs.NewRegistry("a", nil)
		a, err := transport.ListenUDP("127.0.0.1:0", "", reg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := transport.ListenUDP("127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(3)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				_ = a.Send(b.Addr(), []byte("payload"))
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				a.SetHandler(func(transport.Addr, []byte) {})
				a.SetHandler(nil)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
			_ = a.Close()
		}()
		close(start)
		wg.Wait()
		_ = a.Close()
		_ = b.Close()
	}
}

func TestUDPObsRecvCounters(t *testing.T) {
	regA := obs.NewRegistry("a", nil)
	regB := obs.NewRegistry("b", nil)
	a, err := transport.ListenUDP("127.0.0.1:0", "", regA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0", "", regB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan struct{}, 1)
	b.SetHandler(func(transport.Addr, []byte) { got <- struct{}{} })
	msg := []byte("counted")
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("datagram never arrived")
	}

	snapA := regA.Snapshot()
	if snapA.Counters["transport.sent_datagrams"] != 1 {
		t.Fatalf("sender counters = %v", snapA.Counters)
	}
	if snapA.Counters["transport.sent_bytes"] != uint64(len(msg)) {
		t.Fatalf("sent_bytes = %d, want %d", snapA.Counters["transport.sent_bytes"], len(msg))
	}
	snapB := regB.Snapshot()
	if snapB.Counters["transport.recv_datagrams"] < 1 {
		t.Fatalf("receiver counters = %v", snapB.Counters)
	}
	if snapB.Counters["transport.recv_bytes"] < uint64(len(msg)) {
		t.Fatalf("recv_bytes = %d, want ≥ %d", snapB.Counters["transport.recv_bytes"], len(msg))
	}
}

func TestUDPOversizedCounted(t *testing.T) {
	reg := obs.NewRegistry("a", nil)
	a, err := transport.ListenUDP("127.0.0.1:0", "", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := make([]byte, transport.MaxDatagram+1)
	_ = a.Send(a.Addr(), big)
	if got := reg.Snapshot().Counters["transport.send_oversized"]; got != 1 {
		t.Fatalf("send_oversized = %d, want 1", got)
	}
}
