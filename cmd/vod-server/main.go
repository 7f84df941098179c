// Command vod-server runs one fault-tolerant VoD server over real UDP.
//
// Start a replicated service on two terminals:
//
//	vod-server -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002
//	vod-server -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7002
//
// then watch a movie with vod-client. Servers may be started and stopped
// at any time; clients migrate transparently. Every server generates the
// same synthetic movies from the shared seed, standing in for the paper's
// separate replication mechanism for video material. The server is a
// one-node core.Deploy, the same call the library, the simulator and the
// benchmark's socket workload make.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vod-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vod-server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7001", "UDP address to serve on (also the server's ID)")
	peers := fs.String("peers", "", "comma-separated list of all server addresses (including this one)")
	movies := fs.String("movies", "casablanca:90s", "comma-separated movie specs, id:duration")
	movieDir := fs.String("moviedir", "", "directory of .vodm movie files (overrides -movies; see store.SaveTo)")
	seed := fs.Int64("seed", 1, "movie generation seed (must match on all servers)")
	statsEvery := fs.Duration("stats", 10*time.Second, "stats print period (0 disables)")
	debugAddr := fs.String("debug-addr", "", "HTTP address serving the observability snapshot as JSON (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var titles []*core.Movie
	if *movieDir != "" {
		catalog, err := store.LoadDirectory(*movieDir)
		if err != nil {
			return err
		}
		for _, id := range catalog.List() {
			m, _ := catalog.Get(id) // listed a line ago
			titles = append(titles, m)
		}
	} else {
		for _, spec := range strings.Split(*movies, ",") {
			id, durStr, ok := strings.Cut(strings.TrimSpace(spec), ":")
			if !ok {
				return fmt.Errorf("bad movie spec %q, want id:duration", spec)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil {
				return fmt.Errorf("bad movie duration in %q: %w", spec, err)
			}
			titles = append(titles, core.GenerateMovie(id, dur, *seed))
		}
	}
	for _, m := range titles {
		fmt.Println("serving", m)
	}

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}

	// A one-server deployment: every title lands on this server, and the
	// peers are servers that other daemons run.
	reg := obs.NewRegistry(*listen, nil)
	dep, err := core.Deploy(core.DeployOptions{
		Clock:      clock.Real{},
		Network:    transport.UDPNetwork{Obs: reg},
		Servers:    []string{*listen},
		ExtraPeers: peerList,
		Movies:     titles,
		Obs:        func(string) *obs.Registry { return reg },
	})
	if err != nil {
		return err
	}
	defer dep.Stop()
	s := dep.Server(*listen)
	fmt.Printf("server %s up; peers: %v\n", *listen, dep.Peers())

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/debug/vod", reg)
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Printf("debug counters at http://%s/debug/vod\n", ln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-stop:
			fmt.Println("\nshutting down")
			return nil
		case <-tick:
			st := s.Stats()
			fmt.Printf("sessions=%v frames-sent=%d takeovers=%d releases=%d emergencies=%d\n",
				s.ActiveSessions(), st.FramesSent, st.Takeovers, st.Releases, st.Emergencies)
		}
	}
}
