// Command sentinelfront fronts a fleet of sentineld backends: it terminates
// both HTTP/JSON and the binary wire protocol on one port (the same
// first-byte sniff as sentineld), fingerprints every request with the
// canonical serialization the backends key their caches with, and
// consistent-hashes the fingerprint onto the backend ring — so identical
// requests always land where their artifacts are already warm, making each
// backend's caches fleet-wide.
//
//	sentinelfront -addr :8650 -backends localhost:8649,localhost:8651,localhost:8652
//
//	curl -s localhost:8650/v1/figures?section=fig4     # proxied, byte-identical
//	curl -s localhost:8650/fleet/status                # per-backend health + routing view
//
// Health: each backend's /readyz is probed continuously; a draining backend
// stops receiving new keys while it finishes what it holds, a dead one is
// routed around immediately (with one bounded retry onto its ring
// successor for the request that discovered it). Hot fingerprints — keys
// frequent enough to saturate their ring owner — spill round-robin across
// the whole fleet. The router's own /readyz, /metrics, /debug/requests and
// /debug/pprof mirror sentineld's.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sentinel/internal/fleet"
	"sentinel/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8650", "address to listen on")
	backends := flag.String("backends", "", "comma-separated sentineld host:port list (required)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 64)")
	hotThreshold := flag.Int("hot-threshold", 0, "sketch estimate at which a key spills fleet-wide (0 = default 64, negative disables)")
	hotWindow := flag.Int("hot-window", 0, "sketch touches between counter halvings (0 = default 4096)")
	probeInterval := flag.Duration("probe-interval", 0, "backend /readyz polling period (0 = default 500ms)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe deadline (0 = default 2s)")
	timeout := flag.Duration("timeout", 0, "ceiling on every proxied hop: one HTTP exchange, a streamed /v1/batch included, or one wire exchange (0 = default 30s)")
	respcacheEntries := flag.Int("respcache-entries", 0, "front response-cache entries (0 = default 4096, negative disables caching)")
	drain := flag.Duration("drain", 30*time.Second, "maximum time to wait for in-flight requests on shutdown")
	recEntries := flag.Int("recorder-entries", 256, "flight-recorder retained request records (0 disables the recorder)")
	recEvery := flag.Int("recorder-every", 16, "tail-sample 1 in N ordinary requests (errors and slow requests always sample; <0 samples only errors/slow)")
	recSlow := flag.Duration("recorder-slow", 5*time.Millisecond, "requests at least this slow always sample")
	accessLog := flag.String("accesslog", "", "append one JSON line per sampled request to this file ('-' for stderr)")
	flag.Parse()

	log.SetPrefix("sentinelfront: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("-backends is required: a comma-separated sentineld host:port list")
	}

	var rec *obs.Recorder
	if *recEntries > 0 {
		rec = obs.NewRecorder(obs.RecorderConfig{
			Entries: *recEntries,
			Every:   int64(*recEvery),
			Slow:    *recSlow,
		})
		if *accessLog != "" {
			w := os.Stderr
			if *accessLog != "-" {
				f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					log.Fatalf("accesslog: %v", err)
				}
				defer f.Close()
				w = f
			}
			al := obs.NewAccessLogger(w)
			rec.SetSink(al.Log)
		}
	} else if *accessLog != "" {
		log.Fatal("-accesslog requires the flight recorder (-recorder-entries > 0)")
	}

	reg := obs.NewRegistry()
	rt, err := fleet.New(fleet.Config{
		Backends:         addrs,
		VNodes:           *vnodes,
		HotThreshold:     *hotThreshold,
		HotWindow:        *hotWindow,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		RequestTimeout:   *timeout,
		RespCacheEntries: *respcacheEntries,
		Registry:         reg,
		Recorder:         rec,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.Publish("sentinelfront"); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s, routing to %d backend(s): %s",
		ln.Addr(), len(addrs), strings.Join(addrs, ", "))

	// One port, both protocols — exactly like the backends, so any client
	// can point at a backend or the router interchangeably.
	httpSrv := &http.Server{Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(rt.SniffWire(ln)) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("received %v; draining (up to %s)", sig, *drain)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		log.Printf("drain: %v (in-flight requests abandoned)", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	rt.Close()
	log.Printf("drain complete; in-flight requests: %d; exiting", rt.InFlight())
}
