package main

// Example holds the program's whole printout, which shows that a viewer
// configured with only the directory address finds the service, and a killed
// server expires from the directory.
func Example() {
	main()
	// Output:
	// directory knows: [server-1 server-2]
	// after 10s: state=watching displayed=298 served-by=server-1
	// after killing server-1, directory knows: [server-2]
	// viewer still fine: displayed=448 served-by=server-2
}
