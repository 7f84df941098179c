package main

// Example holds the program's whole printout, which shows that pause freezes
// playback, seek and quality changes land, and closing the session leaves no
// server serving the viewer (§3, §4.3).
func Example() {
	main()
	// Output:
	// t=10s  watching normally:          displayed=298   buffered=63  emergencies=5
	// t=15s  paused for 5s (frozen):     displayed=298   buffered=63  emergencies=5
	// t=20s  resumed:                    displayed=448   buffered=63  emergencies=5
	// t=25s  after seek to frame 2400:   displayed=597   buffered=48  emergencies=10
	// t=30s  at 10 fps quality:          displayed=647   buffered=53  emergencies=11
	//                                    server thinned 111 frames
	//
	// session closed; no server serves viewer-1
}
