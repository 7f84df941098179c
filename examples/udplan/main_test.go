package main

import "testing"

// TestFailoverOverLoopback runs the example on loopback UDP and the real
// clock (≈ 11 s); main exits 1 unless the failover it prints held.
func TestFailoverOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test; skipped in -short mode")
	}
	main()
}
