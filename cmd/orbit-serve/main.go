// Command orbit-serve is the forecast serving front end: it loads (or
// quickly fine-tunes) an ORBIT model, wires a pool of batched
// inference replicas behind an overload-safe admission queue, and
// answers concurrent rollout requests over an HTTP/JSON API with
// dynamic batching (requests that arrive while every replica is busy
// share its next forward batch), deadline propagation, and replica
// failover.
//
// Usage:
//
//	orbit-serve                          # fine-tune a demo model, serve on :8090
//	orbit-serve -ckpt model.orbt         # serve a checkpoint (any file kind)
//	orbit-serve -ckpt m.orbt -quantize q4  # block-quantized serving (Q4_0)
//	orbit-serve -tp 2 -replicas 2        # two TP-sharded replicas with failover
//	orbit-serve -queue-cap 64 -deadline 2s -degrade-depth 48
//
// API:
//
//	GET  /healthz      liveness
//	GET  /v1/model     model and serving configuration
//	GET  /v1/stats     serving counters (queue depth, sheds, retries, p50/p99)
//	POST /v1/forecast  {"start": 12, "steps": 4} → per-step wRMSE/wACC
//
// Forecast requests may carry "priority" ("low", "normal", "high") and
// "deadline_ms". Overload sheds answer 429 with Retry-After; expired
// deadlines answer 504.
//
// Example:
//
//	curl -s localhost:8090/v1/forecast -d '{"start": 12, "steps": 4, "deadline_ms": 500}'
package main

import (
	"flag"
	"log"
)

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8090", "listen address")
	flag.StringVar(&opts.ckptPath, "ckpt", "", "checkpoint file to serve (empty: fine-tune a demo model)")
	flag.IntVar(&opts.trainSteps, "train-steps", 150, "fine-tuning steps for the demo model (no -ckpt)")
	flag.IntVar(&opts.maxBatch, "max-batch", 8, "dynamic batching: max coalesced requests per forward batch")
	flag.IntVar(&opts.tp, "tp", 0, "tensor-parallel trunk width per replica over the simulated cluster (0 = single device)")
	flag.StringVar(&opts.quantize, "quantize", "", "serve block-quantized weights: int8 or q4 (empty = float32)")
	flag.IntVar(&opts.stepsCap, "steps-cap", 40, "largest rollout horizon a request may ask for")
	flag.IntVar(&opts.replicas, "replicas", 1, "inference replicas in the failover pool")
	flag.IntVar(&opts.queueCap, "queue-cap", 0, "admission queue capacity; beyond it requests shed with 429 (0 = 4x max-batch)")
	flag.IntVar(&opts.degradeDepth, "degrade-depth", 0, "queue depth at which normal requests skip scoring and return raw rollouts (0 = never)")
	flag.IntVar(&opts.shedLowDepth, "shed-low-depth", 0, "queue depth at which low-priority requests shed (0 = only at queue-cap)")
	flag.DurationVar(&opts.deadline, "deadline", 0, "default per-request deadline; expiry answers 504 (0 = none)")
	flag.Parse()

	a, err := newApp(opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("orbit-serve: %d-parameter model on %s (%d replicas, max-batch %d, queue-cap %d, tp %d)",
		a.model.NumParams(), opts.addr, opts.replicas, a.fs.Config().MaxBatch, a.fs.Config().QueueCap, opts.tp)
	if err := a.run(); err != nil {
		log.Fatal(err)
	}
}
