package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/transport"
)

// TestChannelSetHandlerAllocs: every client and server installs its channel
// handlers at start, so SetHandler must not box the handler on the heap, and
// the handler's slot must not push a Channel past the 64-byte size class.
func TestChannelSetHandlerAllocs(t *testing.T) {
	var ch transport.Channel
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(ch) > 64 {
		t.Errorf("a Channel is %d B, want ≤ 64 (the 64-byte size class)", unsafe.Sizeof(ch))
	}
	a, err := transport.ListenUDP("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c := transport.NewMux(a).Channel(transport.ChannelVideo)
	h := func(transport.Addr, []byte) {}
	allocs := testing.AllocsPerRun(1000, func() {
		c.SetHandler(h)
		c.SetHandler(nil)
	})
	if allocs != 0 {
		t.Fatalf("SetHandler = %v allocs/op, want 0", allocs)
	}
}

// TestChannelSetHandlerRacesDispatch installs and clears a channel's handler
// while datagrams for it arrive on a real socket; run with -race it proves
// the dispatch goroutine reads the handler safely. Once a handler stays put,
// it is the one that runs.
func TestChannelSetHandlerRacesDispatch(t *testing.T) {
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
	send := transport.NewMux(a).Channel(transport.ChannelGCS)
	recv := transport.NewMux(b).Channel(transport.ChannelGCS)

	var early, late atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = send.Send(b.Addr(), []byte("x"))
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			recv.SetHandler(func(transport.Addr, []byte) { early.Add(1) })
			recv.SetHandler(nil)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	recv.SetHandler(func(transport.Addr, []byte) { late.Add(1) })
	for deadline := time.Now().Add(3 * time.Second); late.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the installed handler never ran")
		}
	}
	close(stop)
	wg.Wait()
}
