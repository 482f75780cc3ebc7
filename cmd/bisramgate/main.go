// Command bisramgate is the BISRAMGEN federation gateway: the daemon's
// /v1 surface (internal/server) over the fleet backend
// (internal/cluster) in front of a fleet of bisramgend shards.
// Compile submissions and key-addressed reads route to the content
// key's consistent-hash owner (failing over to ring successors while
// a shard is down), job reads follow the shard that accepted the job,
// and sweeps fan their points across the fleet — merged into a
// results document byte-identical to a single daemon's, because every
// shard derives the same bytes from the same canonical key.
//
// Example:
//
//	bisramgate -addr :8040 -shards http://localhost:8047,http://localhost:8048,http://localhost:8049
//	curl -s localhost:8040/v1/compile -d '{"words":4096,"bpw":32,"bpc":8,"spares":4}'
//
// On SIGINT/SIGTERM the gateway stops accepting work, finishes
// in-flight exchanges and sweep routing (bounded by -drain-timeout),
// and exits 0 on a clean drain.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8040", "listen address")
		shards       = flag.String("shards", "", "comma-separated base URLs of the shard fleet (required)")
		routeWorkers = flag.Int("route-workers", 4*runtime.NumCPU(), "sweep fan-out concurrency (router jobs proxying point compiles)")
		queueDepth   = flag.Int("queue", 1024, "max queued router jobs; overload returns 429")
		deadline     = flag.Duration("deadline", 5*time.Minute, "per-point routing deadline (shard compile + polling)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "shard health probe interval")
		sweepMax     = flag.Int("sweep-max-points", 0, "max points in one sweep's cross product (0 = sweep default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")
		chaosSpec    = flag.String("chaos-spec", "", "TESTING ONLY: fault-injection spec, inline JSON or a file path; enables deterministic chaos drills")
		sseHeartbeat = flag.Duration("sse-heartbeat", 0, "keep-alive cadence of GET /v1/sweeps/{id}/events (0 = built-in default)")
		scrapeWait   = flag.Duration("fleet-scrape-timeout", 0, "per-peer timeout of a GET /metrics?scope=fleet scrape (0 = built-in 2s)")
	)
	flag.Parse()

	if *shards == "" {
		fatalf("-shards is required")
	}
	ring, err := cluster.ParseRing(*shards)
	if err != nil {
		fatalf("-shards: %v", err)
	}
	inj, err := chaos.LoadSpec(*chaosSpec)
	if err != nil {
		fatalf("chaos spec: %v", err)
	}
	if inj != nil {
		fmt.Fprintln(os.Stderr, "bisramgate: CHAOS INJECTION ENABLED — not for production use")
	}

	reg := obs.NewRegistry()
	tab := cluster.NewTable(ring)
	fleet, err := cluster.NewFleet(cluster.FleetConfig{Table: tab, Registry: reg, Chaos: inj, ScrapeTimeout: *scrapeWait})
	if err != nil {
		fatalf("%v", err)
	}
	q := jobs.New(jobs.Config{Workers: *routeWorkers, Capacity: *queueDepth, Deadline: *deadline, Registry: reg})
	srv := server.New(server.Config{
		Queue:          q,
		Backend:        fleet,
		Cluster:        cluster.View{Table: tab},
		Metrics:        reg,
		Chaos:          inj,
		SweepMaxPoints: *sweepMax,
		SSEHeartbeat:   *sseHeartbeat,
	})
	stopProbing := tab.StartProbing(*probeEvery)
	defer stopProbing()

	banner := fmt.Sprintf("listening on %s in front of %d shard(s) (%d up)", *addr, tab.PeersTotal(), tab.PeersUp())
	if code := server.Serve("bisramgate", *addr, srv.Handler(), q, *drainTimeout, banner); code != 0 {
		os.Exit(code)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bisramgate: "+format+"\n", args...)
	os.Exit(1)
}
