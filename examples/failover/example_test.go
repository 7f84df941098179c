package main

// Example holds the program's whole printout, which shows that the survivor
// takes the viewer over from the killed server and the viewer displays every
// frame across the failure (paper §6.1).
func Example() {
	main()
	// Output:
	// t=20s   server-1 is serving the client — killing it now
	// t=20.25s  serving=(nobody — failure being detected)    buffered=55 frames
	// t=20.5s  serving=(nobody — failure being detected)    buffered=48 frames
	// t=20.75s  serving=server-2                             buffered=43 frames
	// t=21s  serving=server-2                             buffered=45 frames
	// t=21.25s  serving=server-2                             buffered=46 frames
	// t=21.5s  serving=server-2                             buffered=48 frames
	// t=21.75s  serving=server-2                             buffered=49 frames
	// t=22s  serving=server-2                             buffered=50 frames
	//
	// displayed across the failure window: 510 frames
	// frames skipped:                      0
	// duplicate (late) frames:             0
	// display stalls:                      0
	//
	// the transition is invisible to a human observer (paper §6.1).
}
