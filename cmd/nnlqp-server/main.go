// Command nnlqp-server is the composition root for NNLQP's serving processes.
// By default it wires all node roles into one process — storage (database +
// L1 cache), measurement (device farm + resilience ladder) and the serving
// core (HTTP handlers + predictor engine) — exactly the single-server layout
// every earlier revision shipped. With -route it instead runs none of those
// roles and becomes a cluster front-end router fanning requests across
// replica servers under a pluggable policy.
//
// Usage:
//
//	nnlqp-server -addr :8080 -db ./nnlqp-data -predictor pred.gob
//	nnlqp-server -addr :8080 -farm 127.0.0.1:9090   # remote device farm
//	nnlqp-server -addr :8080 -route 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083 -route-policy affinity
//
// On SIGINT/SIGTERM the process stops accepting connections and drains
// in-flight requests for up to -shutdown-grace before exiting.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nnlqp/internal/cluster"
	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/query"
	"nnlqp/internal/serve"
	"nnlqp/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dbDir := flag.String("db", "", "database directory (empty = in-memory)")
	predictorPath := flag.String("predictor", "", "trained predictor file (optional)")
	farmAddr := flag.String("farm", "", "remote device farm address (empty = in-process farm)")
	devices := flag.Int("devices", 2, "devices per platform for the in-process farm")
	reqTimeout := flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request deadline for /query and /predict (0 = none)")
	shutdownGrace := flag.Duration("shutdown-grace", server.DefaultShutdownGrace, "in-flight request drain deadline on shutdown")
	syncMode := flag.String("sync", "always", "WAL durability: always (fsync per commit batch) or never (page cache only)")
	ckptWALBytes := flag.Int64("checkpoint-wal-bytes", 0, "auto-checkpoint when the WAL exceeds this size (0 = 4 MiB default, <0 disables)")
	ckptRecords := flag.Int64("checkpoint-records", 0, "auto-checkpoint after this many WAL records (0 = 50000 default, <0 disables)")
	maxAttempts := flag.Int("max-attempts", 3, "measurement attempts per query incl. the first (1 disables retries)")
	attemptTimeout := flag.Duration("attempt-timeout", 10*time.Second, "per-attempt measurement deadline (<0 disables)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "floor before hedged re-dispatch to a second device (0 = percentile-armed only)")
	hedgePct := flag.Float64("hedge-percentile", 0.95, "attempt-latency percentile that arms the hedge (<0 disables hedging)")
	retryBudget := flag.Float64("retry-budget", 16, "retry/hedge token bucket capacity")
	noResilience := flag.Bool("no-resilience", false, "disable the retry/hedge layer entirely")
	noDegrade := flag.Bool("no-degrade", false, "never answer /query from the predictor when the farm is unavailable")
	predictBatchWindow := flag.Duration("predict-batch-window", 0, "gather window for /predict micro-batching (0 = off); concurrent requests within the window share one forward pass")
	predictBatchMax := flag.Int("predict-batch-max", 16, "max requests per gathered /predict batch (flushes the window early)")
	cacheEntries := flag.Int("cache-entries", 0, "L1 serving-cache capacity in records (0 = default, <0 minimal)")
	cacheNegTTL := flag.Duration("cache-negative-ttl", 0, "lifetime of negative (known-absent) L1 entries (0 = default)")
	retrain := flag.Bool("retrain", false, "retrain the predictor in the background as the database evolves, hot-swapping on holdout improvement")
	retrainInterval := flag.Duration("retrain-interval", 0, "how often the retrainer checks its triggers (0 = default 30s)")
	retrainMinNew := flag.Int("retrain-min-new", 0, "new measurements on a platform that trigger a retrain (0 = default 50)")
	retrainMinSamples := flag.Int("retrain-min-samples", 0, "minimum database records before the first (bootstrap) train (0 = default 24)")
	retrainEpochs := flag.Int("retrain-epochs", 0, "training epochs per retrain run (0 = default 10)")
	retrainHoldout := flag.Float64("retrain-holdout", 0, "fraction of the snapshot held out for swap validation (0 = default 0.2)")
	retrainDriftFactor := flag.Float64("retrain-drift-factor", 0, "rolling MAPE above holdout MAPE × this factor triggers a drift retrain (0 = default 1.5)")
	activeMeasure := flag.Bool("active-measure", false, "spend idle farm capacity measuring graphs where the predictor is most uncertain")
	activeInterval := flag.Duration("active-measure-interval", 0, "scheduler tick interval (0 = default 15s)")
	activePerTick := flag.Int("active-measure-per-tick", 0, "measurements scheduled per tick (0 = default 2)")
	activeCandidates := flag.Int("active-measure-candidates", 0, "candidate graphs scored per scheduled measurement (0 = default 8)")
	admitRate := flag.Float64("admit-rate", 0, "admission-control token rate in requests/second for /query and /predict (0 = admission off)")
	admitBurst := flag.Float64("admit-burst", 0, "admission token-bucket burst capacity (0 = rate/10, min 1)")
	admitQueue := flag.Int("admit-queue", 0, "over-rate requests allowed to wait for a token in SLO-urgency order (0 = shed immediately)")
	route := flag.String("route", "", "comma-separated replica addresses; non-empty runs this process as a cluster router instead of a server")
	routePolicy := flag.String("route-policy", "round-robin", "routing policy: round-robin, least-loaded or affinity")
	routeAttempts := flag.Int("route-attempts", 0, "replicas one request may try before giving up (0 = default 3)")
	routeRetryBudget := flag.Float64("route-retry-budget", 0, "router retry token bucket capacity (0 = default 16)")
	routeProbe := flag.Duration("route-probe-interval", 0, "replica health-probe cadence (0 = default 2s)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled); keep it loopback-only")
	flag.Parse()

	if *pprofAddr != "" {
		// pprof gets its own mux and listener so the profiling surface is
		// never exposed on the serving address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			// Not "listening on http://…": launchers (benchmark/procs.go) take
			// the first such line of output for the serving address.
			log.Printf("pprof endpoints at %s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	// Router role: no storage, no farm, no predictor — just membership and
	// policy over the replicas' public HTTP API.
	if *route != "" {
		policy, err := cluster.PolicyByName(*routePolicy)
		if err != nil {
			log.Fatal(err)
		}
		rt := cluster.New(cluster.Config{
			Policy:        policy,
			MaxAttempts:   *routeAttempts,
			RetryBudget:   *routeRetryBudget,
			ProbeInterval: *routeProbe,
		})
		for i, a := range strings.Split(*route, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			rt.AddReplica(fmt.Sprintf("replica-%d", i), a)
		}
		if len(rt.Members().Members()) == 0 {
			log.Fatal("-route needs at least one replica address")
		}
		bound, stop, err := rt.Serve(*addr)
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		fmt.Printf("nnlqp-router (%s) listening on http://%s, %d replicas\n",
			policy.Name(), bound, len(rt.Members().Members()))
		waitForSignal(stop, *shutdownGrace)
		return
	}

	// Storage role: durable store + L1 serving cache.
	dbOpts := db.Options{CheckpointWALBytes: *ckptWALBytes, CheckpointRecords: *ckptRecords}
	switch *syncMode {
	case "always":
		dbOpts.Sync = db.SyncAlways
	case "never":
		dbOpts.Sync = db.SyncNever
	default:
		log.Fatalf("bad -sync %q (want always or never)", *syncMode)
	}
	store, err := db.OpenStoreWith(*dbDir, dbOpts)
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	storage := server.NewStorageRole(store, *cacheEntries, *cacheNegTTL)
	defer storage.Close()

	// Measurement role: device farm (in-process or remote) + resilience.
	var meas *server.MeasurementRole
	if *farmAddr != "" {
		meas, err = server.NewRemoteMeasurementRole(*farmAddr)
		if err != nil {
			log.Fatalf("dial farm: %v", err)
		}
		defer meas.Close()
	} else {
		meas = server.NewLocalMeasurementRole(*devices)
	}
	if !*noResilience {
		meas.EnableResilience(query.ResilienceConfig{
			MaxAttempts:     *maxAttempts,
			AttemptTimeout:  *attemptTimeout,
			HedgeDelay:      *hedgeDelay,
			HedgePercentile: *hedgePct,
			RetryBudget:     *retryBudget,
		})
	}

	var pred *core.Predictor
	if *predictorPath != "" {
		f, err := os.Open(*predictorPath)
		if err != nil {
			log.Fatalf("open predictor: %v", err)
		}
		pred, err = core.Load(f)
		f.Close()
		if err != nil {
			log.Fatalf("load predictor: %v", err)
		}
		log.Printf("predictor loaded: platforms %v", pred.Platforms())
	}

	// Serving core composed over the two roles.
	srv := server.NewCore(storage, meas, pred)
	if *noDegrade {
		srv.System().SetFallback(nil)
	}
	srv.RequestTimeout = *reqTimeout
	srv.ShutdownGrace = *shutdownGrace
	if *predictBatchWindow > 0 {
		srv.ConfigurePredictBatching(*predictBatchWindow, *predictBatchMax)
		log.Printf("predict micro-batching: window %s, max width %d", *predictBatchWindow, *predictBatchMax)
	}
	if *admitRate > 0 {
		srv.ConfigureAdmission(server.AdmissionConfig{
			Rate: *admitRate, Burst: *admitBurst, QueueCap: *admitQueue,
		})
		log.Printf("admission control: rate %.1f rps, burst %.1f, queue %d", *admitRate, *admitBurst, *admitQueue)
	}
	if *retrain {
		cfg := serve.RetrainConfig{
			Interval:        *retrainInterval,
			MinNewRecords:   *retrainMinNew,
			MinSamples:      *retrainMinSamples,
			Epochs:          *retrainEpochs,
			HoldoutFrac:     *retrainHoldout,
			DriftMAPEFactor: *retrainDriftFactor,
		}
		srv.EnableRetraining(cfg)
		log.Printf("online retraining enabled (interval %s)", cfg.WithDefaults().Interval)
	}
	if *activeMeasure {
		cfg := serve.ActiveConfig{
			Interval:   *activeInterval,
			PerTick:    *activePerTick,
			Candidates: *activeCandidates,
		}
		srv.EnableActiveMeasurement(cfg, nil)
		log.Printf("active measurement enabled (interval %s)", cfg.WithDefaults().Interval)
	}

	bound, stop, err := srv.Serve(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("nnlqp-server listening on http://%s\n", bound)
	fmt.Print(hwsim.FleetSummary())
	waitForSignal(stop, *shutdownGrace)
}

func waitForSignal(stop func() error, grace time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down (draining for up to %s)", grace)
	start := time.Now()
	if err := stop(); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("drained in %.1fs", time.Since(start).Seconds())
}
