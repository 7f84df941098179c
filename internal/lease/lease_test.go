package lease

import (
	"testing"
	"time"

	"repro/internal/clock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestCodecRoundTrip(t *testing.T) {
	rn := Renew{ClientID: "viewer-7", Seq: 42}
	var gotR Renew
	if err := DecodeRenewInto(&gotR, AppendRenew(nil, &rn)); err != nil {
		t.Fatal(err)
	}
	if gotR != rn {
		t.Fatalf("renew round trip: %+v != %+v", gotR, rn)
	}
	ack := Ack{ClientID: "viewer-7", Seq: 42, TTLMs: 2000}
	var gotA Ack
	if err := DecodeAckInto(&gotA, AppendAck(nil, &ack)); err != nil {
		t.Fatal(err)
	}
	if gotA != ack {
		t.Fatalf("ack round trip: %+v != %+v", gotA, ack)
	}
	// Cross-kind decode must fail cleanly.
	if err := DecodeRenewInto(&gotR, AppendAck(nil, &ack)); err == nil {
		t.Fatal("renew decoder accepted an ack")
	}
	if err := DecodeAckInto(&gotA, AppendRenew(nil, &rn)); err == nil {
		t.Fatal("ack decoder accepted a renew")
	}
	if err := DecodeRenewInto(&gotR, nil); err == nil {
		t.Fatal("renew decoder accepted empty input")
	}
}

func TestTableExpiry(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	var expired []string
	tbl := NewTable(clk, time.Second, func(id string) { expired = append(expired, id) })
	defer tbl.Close()

	tbl.Touch("b")
	tbl.Touch("a")
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	// Keep "a" alive, let "b" lapse.
	clk.Advance(600 * time.Millisecond)
	tbl.Touch("a")
	clk.Advance(900 * time.Millisecond) // "b" lapses at 1.0s; sweep at 1.25s
	if len(expired) != 1 || expired[0] != "b" {
		t.Fatalf("expired = %v", expired)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len after expiry = %d", tbl.Len())
	}
	// Dropped entries never fire onExpire.
	tbl.Drop("a")
	clk.Advance(3 * time.Second)
	if len(expired) != 1 {
		t.Fatalf("expired after Drop = %v", expired)
	}
}

func TestTableExpiryOrderSorted(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	var expired []string
	tbl := NewTable(clk, time.Second, func(id string) { expired = append(expired, id) })
	defer tbl.Close()
	for _, id := range []string{"z", "m", "a", "q"} {
		tbl.Touch(id)
	}
	clk.Advance(2 * time.Second)
	want := []string{"a", "m", "q", "z"}
	if len(expired) < 4 {
		t.Fatalf("expired = %v", expired)
	}
	for i, id := range want {
		if expired[i] != id {
			t.Fatalf("expiry order = %v, want %v", expired, want)
		}
	}
}

func TestTableTouchAllocFree(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	tbl := NewTable(clk, time.Second, nil)
	defer tbl.Close()
	tbl.Touch("steady") // map cell created once
	allocs := testing.AllocsPerRun(200, func() { tbl.Touch("steady") })
	if allocs != 0 {
		t.Fatalf("steady-state Touch allocs = %v, want 0", allocs)
	}
	// Drop/Touch churn reuses the map cell.
	tbl.Drop("steady")
	tbl.Touch("steady")
	allocs = testing.AllocsPerRun(200, func() {
		tbl.Drop("steady")
		tbl.Touch("steady")
	})
	if allocs != 0 {
		t.Fatalf("churn Touch allocs = %v, want 0", allocs)
	}
}

func TestKeeperRenewAndLoss(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	var sent []uint64
	losses := 0
	k := NewKeeper(clk, 900*time.Millisecond, func(seq uint64) { sent = append(sent, seq) }, func() { losses++ })
	defer k.Stop()

	// Acked renewals: no loss.
	for i := 0; i < 3; i++ {
		clk.Advance(300 * time.Millisecond)
		if len(sent) != i+1 {
			t.Fatalf("after tick %d: sent = %v", i, sent)
		}
		k.Ack(sent[len(sent)-1])
	}
	if losses != 0 {
		t.Fatalf("losses = %d with acked renewals", losses)
	}
	if k.seq != 3 || k.acked != 3 {
		t.Fatalf("sent/acked = %d/%d", k.seq, k.acked)
	}

	// Silence: onLost fires exactly once, renewals keep going.
	clk.Advance(3 * time.Second)
	if losses != 1 {
		t.Fatalf("losses = %d, want 1", losses)
	}
	if len(sent) < 10 {
		t.Fatalf("keeper stopped renewing while lost: %v", sent)
	}

	// Recovery: an Ack (or Touch) rearms the loss edge.
	k.Ack(sent[len(sent)-1])
	clk.Advance(3 * time.Second)
	if losses != 2 {
		t.Fatalf("losses after recovery = %d, want 2", losses)
	}
	k.Touch()
	clk.Advance(600 * time.Millisecond)
	if losses != 2 {
		t.Fatalf("losses right after Touch = %d, want 2", losses)
	}
}

func TestKeeperStopSilences(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	sent := 0
	k := NewKeeper(clk, 900*time.Millisecond, func(uint64) { sent++ }, nil)
	clk.Advance(time.Second)
	k.Stop()
	before := sent
	clk.Advance(5 * time.Second)
	if sent != before {
		t.Fatalf("keeper sent after Stop: %d -> %d", before, sent)
	}
}
