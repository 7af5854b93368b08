// Command pathfinderd serves the experiment-orchestration API: a worker
// pool of simulators drains a bounded job queue, and an HTTP/JSON surface
// submits jobs, runs µarch sweeps, reports results, and exposes metrics.
//
// It runs in one of three roles. Standalone (the default) is the single-node
// service. A coordinator owns the cluster job table and shards sweeps across
// workers; a worker joins a coordinator, executes assignments on its local
// pool, and exchanges content-addressed warm snapshots with its peers.
//
//	pathfinderd -addr :8321 -workers 4
//	pathfinderd -role coordinator -addr :8321
//	pathfinderd -role worker -addr :8322 -coordinator http://coord:8321 -node-name w0
//	curl -s localhost:8321/v1/experiments
//	curl -s -XPOST localhost:8321/v1/jobs -d '{"experiment":"fig4","params":{"seed":7}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pathfinder/internal/chaosnet"
	"pathfinder/internal/cluster"
	"pathfinder/internal/harness"
	"pathfinder/internal/service"
	"pathfinder/internal/snapstore"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pathfinderd", flag.ContinueOnError)
	fs.SetOutput(out)
	role := fs.String("role", "standalone", "process role: standalone | coordinator | worker")
	addr := fs.String("addr", ":8321", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 256, "bounded job-queue depth")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "default per-job timeout")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "max wait for in-flight jobs on shutdown")
	dataDir := fs.String("data-dir", "", "directory for the durable job journal (empty = in-memory only)")
	maxAttempts := fs.Int("max-attempts", 1, "per-job attempt budget (1 = no retries)")
	retryBackoff := fs.Duration("retry-backoff", 500*time.Millisecond, "base backoff before a failed job is retried")
	resultCache := fs.Int("result-cache", 256, "result-cache capacity in entries (0 = disabled)")
	snapDir := fs.String("snap-store", "", `persistent warm-snapshot store directory (default: <data-dir>/snapshots when -data-dir is set; "off" disables)`)
	snapMax := fs.Int64("snap-store-max", snapstore.DefaultMaxBytes, "snapshot-store size cap in bytes before LRU eviction")
	storeDelta := fs.Bool("store-delta", true, "persist warm snapshots as delta chains against the previous snapshot of the same kind and arch (false = full blobs, pre-delta behavior)")
	pprofAddr := fs.String("pprof-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
	// Cluster flags. -coordinator, -self-url, -node-name and -heartbeat
	// shape a worker; -lease-ttl, -dispatch-interval, -max-assigns and
	// -max-inflight shape a coordinator.
	coordURL := fs.String("coordinator", "", "worker: coordinator base URL (required for -role worker)")
	selfURL := fs.String("self-url", "", "worker: URL peers reach this node at (default: derived from the listener)")
	nodeName := fs.String("node-name", "", "worker: stable cluster-unique name (default: hostname-port)")
	heartbeat := fs.Duration("heartbeat", time.Second, "worker: heartbeat interval")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "coordinator: assignment lease; jobs on silent workers requeue after this")
	dispatchEvery := fs.Duration("dispatch-interval", 50*time.Millisecond, "coordinator: scheduling tick")
	maxAssigns := fs.Int("max-assigns", 3, "coordinator: accepted assignments one job may consume before failing")
	maxInflight := fs.Int("max-inflight", 4, "coordinator: max leases per worker")
	// Resilience flags: per-RPC-class deadlines for intra-cluster calls,
	// worker-side retry budget and fetch hedging, coordinator-side peer
	// breakers and degraded-mode shedding, and the deterministic chaos
	// fault injector for drills.
	rpcHeartbeat := fs.Duration("rpc-timeout-heartbeat", 2*time.Second, "cluster: deadline for heartbeats and result pushes")
	rpcControl := fs.Duration("rpc-timeout-control", 5*time.Second, "cluster: deadline for assignments, snapshot lookups and peer reports")
	rpcFetch := fs.Duration("rpc-timeout-fetch", 10*time.Second, "cluster: snapshot-fetch deadline before response headers arrive")
	rpcFetchPerMB := fs.Duration("rpc-timeout-fetch-per-mb", 2*time.Second, "cluster: snapshot-fetch deadline extension per MB of advertised body")
	hedgeDelay := fs.Duration("hedge-delay", 50*time.Millisecond, "worker: wait on the first warm-fetch leg before racing a second holder")
	retryRate := fs.Float64("retry-budget", 2, "worker: shared retry budget refill rate in tokens/second")
	retryBurst := fs.Float64("retry-burst", 0, "worker: retry budget burst capacity (0 = 2x -retry-budget)")
	breakerThreshold := fs.Int("peer-breaker-threshold", 3, "coordinator: consecutive assignment failures before a worker is quarantined")
	breakerCooldown := fs.Duration("peer-breaker-cooldown", 5*time.Second, "coordinator: quarantine time before a probe assignment is admitted")
	degradedAfter := fs.Duration("degraded-after", 0, "coordinator: run jobs in-process after pending work has starved this long with no assignable worker (0 = off)")
	chaosSpec := fs.String("chaos", "", `deterministic fault injection on outbound cluster RPCs, e.g. "seed=7,drop_request=0.1,latency=0.2:1ms:10ms" (drills/testing; empty = off)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject nonsense before it turns into a zero-worker deadlock or an
	// unbounded queue: every knob below has no meaningful negative or zero
	// interpretation (workers keeps 0 = GOMAXPROCS).
	switch {
	case *workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 selects GOMAXPROCS), got %d", *workers)
	case *queue <= 0:
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	case *jobTimeout <= 0:
		return fmt.Errorf("-job-timeout must be positive, got %s", *jobTimeout)
	case *drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be positive, got %s", *drainTimeout)
	case *maxAttempts <= 0:
		return fmt.Errorf("-max-attempts must be positive, got %d", *maxAttempts)
	case *retryBackoff <= 0:
		return fmt.Errorf("-retry-backoff must be positive, got %s", *retryBackoff)
	case *resultCache < 0:
		return fmt.Errorf("-result-cache must be >= 0 (0 disables), got %d", *resultCache)
	case *snapMax <= 0:
		return fmt.Errorf("-snap-store-max must be positive, got %d", *snapMax)
	case *heartbeat <= 0:
		return fmt.Errorf("-heartbeat must be positive, got %s", *heartbeat)
	case *leaseTTL <= 0:
		return fmt.Errorf("-lease-ttl must be positive, got %s", *leaseTTL)
	case *dispatchEvery <= 0:
		return fmt.Errorf("-dispatch-interval must be positive, got %s", *dispatchEvery)
	case *maxAssigns <= 0:
		return fmt.Errorf("-max-assigns must be positive, got %d", *maxAssigns)
	case *maxInflight <= 0:
		return fmt.Errorf("-max-inflight must be positive, got %d", *maxInflight)
	case *rpcHeartbeat <= 0:
		return fmt.Errorf("-rpc-timeout-heartbeat must be positive, got %s", *rpcHeartbeat)
	case *rpcControl <= 0:
		return fmt.Errorf("-rpc-timeout-control must be positive, got %s", *rpcControl)
	case *rpcFetch <= 0:
		return fmt.Errorf("-rpc-timeout-fetch must be positive, got %s", *rpcFetch)
	case *rpcFetchPerMB <= 0:
		return fmt.Errorf("-rpc-timeout-fetch-per-mb must be positive, got %s", *rpcFetchPerMB)
	case *hedgeDelay <= 0:
		return fmt.Errorf("-hedge-delay must be positive, got %s", *hedgeDelay)
	case *retryRate <= 0:
		return fmt.Errorf("-retry-budget must be positive, got %g", *retryRate)
	case *retryBurst < 0:
		return fmt.Errorf("-retry-burst must be >= 0 (0 derives from -retry-budget), got %g", *retryBurst)
	case *breakerThreshold <= 0:
		return fmt.Errorf("-peer-breaker-threshold must be positive, got %d", *breakerThreshold)
	case *breakerCooldown <= 0:
		return fmt.Errorf("-peer-breaker-cooldown must be positive, got %s", *breakerCooldown)
	case *degradedAfter < 0:
		return fmt.Errorf("-degraded-after must be >= 0 (0 disables), got %s", *degradedAfter)
	// Port 0 is exempt: two ephemeral binds always land on distinct ports.
	case *pprofAddr != "" && *pprofAddr == *addr && !strings.HasSuffix(*addr, ":0"):
		return fmt.Errorf("-pprof-addr must differ from -addr: profiling stays off the public API listener")
	}
	switch *role {
	case "standalone", "coordinator":
		if *coordURL != "" {
			return fmt.Errorf("-coordinator only applies to -role worker")
		}
	case "worker":
		if *coordURL == "" {
			return fmt.Errorf("-role worker requires -coordinator")
		}
	default:
		return fmt.Errorf("-role must be standalone, coordinator or worker, got %q", *role)
	}
	if *chaosSpec != "" && *role == "standalone" {
		return fmt.Errorf("-chaos only applies to cluster roles: it faults coordinator/worker RPCs")
	}
	var chaosNet *chaosnet.Network
	if *chaosSpec != "" {
		ccfg, err := chaosnet.ParseSpec(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		chaosNet = chaosnet.New(ccfg)
	}
	rpcTimeouts := cluster.RPCTimeouts{
		Heartbeat:  *rpcHeartbeat,
		Control:    *rpcControl,
		FetchBase:  *rpcFetch,
		FetchPerMB: *rpcFetchPerMB,
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := slog.New(slog.NewTextHandler(out, nil))

	// The snapshot store persists warm training state across restarts, so a
	// relaunched daemon resumes sweeps with disk hits instead of retraining.
	// Coordinators never simulate, so they skip it.
	harness.SetStoreDeltaEnabled(*storeDelta)
	var snaps *snapstore.Store
	if storeDir := *snapDir; storeDir != "off" && *role != "coordinator" {
		if storeDir == "" && *dataDir != "" {
			storeDir = filepath.Join(*dataDir, "snapshots")
		}
		if storeDir != "" {
			st, err := snapstore.Open(storeDir, *snapMax)
			if err != nil {
				return fmt.Errorf("snapshot store: %w", err)
			}
			harness.SetSnapStore(st)
			snaps = st
			fmt.Fprintf(out, "snapshot store at %s (cap %d bytes)\n", st.Dir(), *snapMax)
		}
	}

	// Role-specific setup: each branch yields the API handler plus a drain
	// function; listening and shutdown are shared below.
	var (
		handler http.Handler
		drain   func(context.Context) error
		started func(ln net.Addr) error // post-listen hook (worker join)
	)
	switch *role {
	case "coordinator":
		var coordClient *http.Client
		if chaosNet != nil {
			coordClient = chaosNet.Client("coordinator", nil)
			fmt.Fprintf(out, "chaos fault injection armed: %s\n", *chaosSpec)
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Logger:               logger,
			LeaseTTL:             *leaseTTL,
			DispatchEvery:        *dispatchEvery,
			MaxAssigns:           *maxAssigns,
			MaxInflightPerWorker: *maxInflight,
			DefaultTimeout:       *jobTimeout,
			DataDir:              *dataDir,
			Timeouts:             rpcTimeouts,
			PeerBreakerThreshold: *breakerThreshold,
			PeerBreakerCooldown:  *breakerCooldown,
			DegradedAfter:        *degradedAfter,
			HTTPClient:           coordClient,
		})
		if err != nil {
			return err
		}
		handler = coord.Handler()
		drain = coord.Shutdown

	default: // standalone and worker both run a local service
		svc, err := service.Open(service.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			DefaultTimeout:  *jobTimeout,
			Logger:          logger,
			DataDir:         *dataDir,
			MaxAttempts:     *maxAttempts,
			RetryBackoff:    *retryBackoff,
			ResultCacheSize: *resultCache,
		})
		if err != nil {
			return err
		}
		if *role == "standalone" {
			handler = svc.Handler()
			drain = svc.Shutdown
			break
		}
		var wk *cluster.Worker
		// The worker's handler is built before the listener exists; the
		// self URL and default node name need the bound port, so the worker
		// itself is constructed in the post-listen hook.
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if wk == nil {
				http.Error(w, "worker still joining", http.StatusServiceUnavailable)
				return
			}
			wk.Handler().ServeHTTP(w, r)
		})
		started = func(a net.Addr) error {
			self := *selfURL
			if self == "" {
				self = "http://" + reachableHostPort(a)
			}
			name := *nodeName
			if name == "" {
				host, err := os.Hostname()
				if err != nil || host == "" {
					host = "worker"
				}
				_, port, _ := net.SplitHostPort(a.String())
				name = host + "-" + port
			}
			var workerClient *http.Client
			if chaosNet != nil {
				workerClient = chaosNet.Client(name, nil)
				fmt.Fprintf(out, "chaos fault injection armed: %s\n", *chaosSpec)
			}
			w, err := cluster.NewWorker(cluster.WorkerConfig{
				Name:           name,
				Coordinator:    *coordURL,
				SelfURL:        self,
				Heartbeat:      *heartbeat,
				Logger:         logger,
				SnapStore:      snaps,
				Timeouts:       rpcTimeouts,
				HedgeDelay:     *hedgeDelay,
				RetryPerSecond: *retryRate,
				RetryBurst:     *retryBurst,
				HTTPClient:     workerClient,
			}, svc)
			if err != nil {
				return err
			}
			w.Start()
			wk = w
			fmt.Fprintf(out, "worker %s joined %s as %s\n", name, *coordURL, self)
			return nil
		}
		drain = func(dctx context.Context) error {
			if wk != nil {
				wk.Stop()
			}
			return svc.Shutdown(dctx)
		}
	}

	// The pprof endpoints get their own listener and mux: the public API
	// handler never gains /debug/pprof/ routes, so profiling can be bound
	// to localhost while the API faces the network.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pprofSrv = &http.Server{Handler: pprofMux()}
		fmt.Fprintf(out, "pprof listening on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = pprofSrv.Serve(pln) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pathfinderd listening on http://%s\n", ln.Addr())
	if started != nil {
		if err := started(ln.Addr()); err != nil {
			ln.Close()
			return err
		}
	}

	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("pprof shutdown: %w", err)
		}
	}
	if err := drain(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(out, "pathfinderd drained and stopped")
	return nil
}

// reachableHostPort rewrites a listener address into something peers can
// dial: the unspecified host (":8322" binds [::] or 0.0.0.0) becomes
// loopback, which is correct for the single-machine clusters the default
// serves — multi-host deployments pass -self-url.
func reachableHostPort(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// pprofMux registers the net/http/pprof handlers on a private mux instead
// of http.DefaultServeMux, so nothing else sharing the process default mux
// ever inherits the profiling routes.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
