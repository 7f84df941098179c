package main

// Example holds the program's whole printout, which shows that a server
// brought up mid-stream absorbs its share of the viewers, and no viewer
// skips, repeats or stalls a frame (§1).
func Example() {
	main()
	// Output:
	// before (2 servers):           server-1: 6 clients  server-2: 0 clients
	//
	// bringing up server-3 to alleviate the load ...
	// after (3 servers):            server-1: 2 clients  server-2: 2 clients  server-3: 2 clients
	//
	// viewer-1: displayed=784 skipped=0 late=0 stalls=0
	// viewer-2: displayed=778 skipped=0 late=0 stalls=0
	// viewer-3: displayed=772 skipped=0 late=0 stalls=0
	// viewer-4: displayed=766 skipped=0 late=0 stalls=0
	// viewer-5: displayed=760 skipped=0 late=0 stalls=0
	// viewer-6: displayed=754 skipped=0 late=0 stalls=0
}
