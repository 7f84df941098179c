package main

// Example holds the program's whole printout, which shows that a viewer
// plays the first half minute with nothing skipped and its buffers between
// the water marks (main exits 1 otherwise).
func Example() {
	main()
	// Output:
	// movie: movie casablanca: 2700 frames, 1m30s, 1399 kbit/s
	// replicas: [server-1 server-2 server-3]
	//
	//   time   displayed   buffered   skipped   stalls  served by
	//     5s         148         47         0        0  server-1
	//    10s         298         63         0        0  server-1
	//    15s         448         63         0        0  server-1
	//    20s         598         63         0        0  server-1
	//    25s         748         63         0        0  server-1
	//    30s         898         63         0        0  server-1
	//
	// playback is smooth: the buffers sit between the water marks (54–65 frames) and nothing was skipped.
}
