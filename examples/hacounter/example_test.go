package main

// Example holds the program's whole printout, which shows that every replica
// applies the same increments, before and after the coordinator crashes (§8).
func Example() {
	main()
	// Output:
	// replica-1: value=45 applied=10 view=3 members
	// replica-2: value=45 applied=10 view=3 members
	// replica-3: value=45 applied=10 view=3 members
	//
	// crashing replica-1 ...
	// replica-2: value=105 applied=15 view=2 members
	// replica-3: value=105 applied=15 view=2 members
	//
	// survivors agree — the same substrate that keeps movies playing keeps any replicated service consistent (§8).
}
