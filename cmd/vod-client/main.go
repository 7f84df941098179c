// Command vod-client is a headless VoD client over real UDP: it opens a
// movie against the abstract server group, plays it (displaying means
// consuming frames at the nominal rate), and reports the same quantities
// the paper's evaluation plots — buffer occupancies, skipped, late and
// stalled frames.
//
//	vod-client -listen 127.0.0.1:7100 \
//	           -servers 127.0.0.1:7001,127.0.0.1:7002 -movie casablanca
//
// Kill the serving vod-server mid-playback and watch the counters: the
// surviving replica takes over within about half a second.
//
// The client reads VCR commands from stdin while playing:
//
//	pause | resume | seek <frame> | quality <fps> | stop
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vod-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vod-client", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7100", "UDP address to receive video on")
	servers := fs.String("servers", "127.0.0.1:7001", "comma-separated VoD server addresses")
	movie := fs.String("movie", "casablanca", "movie ID to watch")
	statsEvery := fs.Duration("stats", time.Second, "stats print period")
	seek := fs.Uint("seek", 0, "seek to this frame 5 seconds in (0 = no seek)")
	debugAddr := fs.String("debug-addr", "", "HTTP address serving the observability snapshot as JSON (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var serverList []string
	for _, s := range strings.Split(*servers, ",") {
		if s = strings.TrimSpace(s); s != "" {
			serverList = append(serverList, s)
		}
	}
	if len(serverList) == 0 {
		return fmt.Errorf("no servers given (-servers)")
	}

	reg := obs.NewRegistry(*listen, nil)
	c, err := client.New(client.Config{
		ID:      *listen,
		Clock:   clock.Real{},
		Network: transport.UDPNetwork{Obs: reg},
		Servers: serverList,
		Obs:     reg,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Watch(*movie); err != nil {
		return err
	}
	fmt.Printf("watching %q via %s\n", *movie, *servers)

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
	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()

	commands := make(chan string, 1)
	go func() {
		// Stdin may be closed (piped deployments); the goroutine then
		// simply ends and playback continues without interactive control.
		scanner := bufio.NewScanner(os.Stdin)
		for scanner.Scan() {
			commands <- strings.TrimSpace(scanner.Text())
		}
	}()

	start := time.Now()
	seekDone := *seek == 0
	for {
		select {
		case <-stop:
			fmt.Println("\nbye")
			return nil
		case cmd := <-commands:
			if err := applyVCR(c, cmd); err != nil {
				fmt.Println("?", err)
			}
			if cmd == "stop" {
				return nil
			}
		case <-ticker.C:
			if !seekDone && time.Since(start) > 5*time.Second {
				seekDone = true
				fmt.Printf("-- seeking to frame %d --\n", *seek)
				if err := c.Seek(uint32(*seek)); err != nil {
					return err
				}
			}
			cnt := c.Counters()
			occ := c.Occupancy()
			fmt.Printf("%-9s displayed=%-5d sw=%-2d hw=%-6dB skipped=%-3d late=%-3d stalls=%-3d jitter=%-8s state=%s\n",
				time.Since(start).Truncate(time.Second), cnt.Displayed,
				occ.SoftwareFrames, occ.HardwareBytes, cnt.Skipped(), cnt.Late, cnt.Stalls,
				c.Jitter().Truncate(100*time.Microsecond), c.State())
			if c.State() == client.StateFinished {
				fmt.Println("movie finished")
				return nil
			}
		}
	}
}

// applyVCR executes one interactive command.
func applyVCR(c *client.Client, cmd string) error {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return nil
	}
	arg := func() (uint64, error) {
		if len(fields) < 2 {
			return 0, fmt.Errorf("%s needs an argument", fields[0])
		}
		return strconv.ParseUint(fields[1], 10, 32)
	}
	switch fields[0] {
	case "pause":
		return c.Pause()
	case "resume":
		return c.Resume()
	case "seek":
		n, err := arg()
		if err != nil {
			return err
		}
		return c.Seek(uint32(n))
	case "quality":
		n, err := arg()
		if err != nil {
			return err
		}
		return c.SetQuality(uint16(n))
	case "stop":
		return c.StopWatching()
	default:
		return fmt.Errorf("unknown command %q (pause|resume|seek N|quality N|stop)", fields[0])
	}
}
