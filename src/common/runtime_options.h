#ifndef RESUFORMER_COMMON_RUNTIME_OPTIONS_H_
#define RESUFORMER_COMMON_RUNTIME_OPTIONS_H_

#include <string>

#include "common/status.h"

namespace resuformer {

/// \brief Every process-level runtime knob in one struct.
///
/// Model hyper-parameters describe *what* to compute; RuntimeOptions
/// describes *how* the process executes it (pool width, kernel selection,
/// observability). `ResuFormerConfig` embeds one as `runtime`, and model
/// constructors apply it via `core::ApplyRuntimeOptions`, so a single struct
/// flows from config files, env vars or CLI flags down to the thread pool,
/// metrics registry and tracer.
///
/// Environment overrides are resolved in exactly one place —
/// `RuntimeOptions::FromEnv()` — instead of scattered getenv calls:
///
///   RESUFORMER_THREADS          int    worker threads (>=1; 0 = auto)
///   RESUFORMER_FUSED_ATTENTION  0/1    fused vs composed attention path
///   RESUFORMER_USE_PLAN         0/1    static inference-plan replay
///   RESUFORMER_USE_INT8         0/1    int8 GEMMs inside plan replay
///   RESUFORMER_SAVE_RFP3        0/1    save mmap-able RFP3 checkpoints
///   RESUFORMER_METRICS          0/1    timed metrics (histograms/timers)
///   RESUFORMER_TRACE            0/1    scoped-span tracing
///
/// Strict knobs (a set but malformed or out-of-range value is an
/// InvalidArgument naming the variable, not a silent clamp; see FromEnv):
///
///   RESUFORMER_TRACE_CAPACITY        int >= 16 per-thread span ring capacity
///   RESUFORMER_SERVE_MAX_BATCH       int >= 1  micro-batch flush size
///   RESUFORMER_SERVE_MAX_QUEUE_DELAY_MS int >= 1  micro-batch flush deadline
///   RESUFORMER_SERVE_QUEUE_CAPACITY  int >= 1  admission-queue bound
///   RESUFORMER_SERVE_WORKERS         int >= 1  server worker threads
///   RESUFORMER_SERVE_STATS_WINDOW_MS int >= 10 sliding stats window
///   RESUFORMER_SERVE_SLOW_TRACE_US   int >= 0  slow-trace threshold (0 = off)
///   RESUFORMER_SERVE_SLOW_TRACE_DIR  string    slow-trace exemplar directory
struct RuntimeOptions {
  // Worker threads for the tensor kernels (GEMM, softmax, layernorm, ...).
  // 0 = the RESUFORMER_THREADS env var when set, else hardware concurrency;
  // 1 = exact legacy serial behavior. Results are deterministic for any
  // fixed value.
  int threads = 0;

  // Fused multi-head attention kernel (ops::FusedMultiHeadAttention). The
  // fused forward is bit-identical to the composed reference at any thread
  // count; gradients agree to float rounding. false selects the composed
  // per-head op chain (the equivalence oracle used by the tests).
  bool use_fused_attention = true;

  // Route ResuFormerPipeline parses through the static inference-plan cache
  // (trace once per sequence-length bucket, replay per document; see
  // core/inference_plan.h). Output is identical to the dynamic path — any
  // unplannable document falls back automatically. Default off.
  bool use_inference_plan = false;

  // Quantize plan GEMMs with constant weights (Linear layers, attention
  // projections, LSTM gates) to per-tensor symmetric int8 with int32
  // accumulation: weights are quantized once at plan-build time,
  // activations dynamically per replay (see tensor/quant.h). Implies plan
  // routing in the pipeline even when use_inference_plan is off; documents
  // the plan cannot cover still fall back to the dynamic fp32 path. Output
  // is NOT bit-identical to fp32 — the tier-1 accuracy gate bounds the
  // block-accuracy / NER-F1 deltas — but is deterministic at any thread
  // count. Default off.
  bool use_int8 = false;

  // Write checkpoints in the mmap-able RFP3 layout (64-byte-aligned raw
  // payloads; see nn/serialize.h) instead of RFP2. Loading auto-detects
  // the format, so this only affects Save. Default off.
  bool save_rfp3 = false;

  // Enables the *timed* metrics (latency histograms, thread-pool queue-wait
  // sampling). Structural counters (documents parsed, GEMM calls) are
  // always live; this knob only gates clock reads.
  bool enable_metrics = false;

  // Enables scoped-span tracing (TRACE_SPAN). Off, every span site costs
  // one relaxed atomic load; on, spans land in per-thread ring buffers
  // exportable as Chrome trace JSON.
  bool enable_tracing = false;

  // Per-thread span ring capacity (most recent spans are kept).
  int trace_buffer_capacity = 8192;

  // --- serving (src/serve admission queue) ---------------------------------
  // A micro-batch flushes when it holds serve_max_batch requests or when its
  // oldest request has waited serve_max_queue_delay_ms, whichever comes
  // first. All four are strictly positive; FromEnv rejects a zero/negative
  // or malformed override with a named-parameter error.
  int serve_max_batch = 8;
  int serve_max_queue_delay_ms = 5;
  // Admitted-but-unclaimed requests beyond this bound are rejected with
  // ResourceExhausted (backpressure), never silently queued.
  int serve_queue_capacity = 256;
  // Server worker threads draining the queue. Each worker replays the shared
  // plan cache; per-document tensor kernels run inline on the worker.
  int serve_workers = 2;

  // --- serving observability plane (PR 9) ----------------------------------
  // Sliding window for the live p50/p99 surfaced by the kStats admin frame.
  // The window is split into 10 rotating epochs, so it must be >= 10 ms.
  int serve_stats_window_ms = 60'000;
  // A served request whose e2e latency reaches this many microseconds has
  // its span window captured as an on-disk Chrome-trace exemplar
  // (rate-limited and bounded; see serve/server.h). 0 disables capture.
  int serve_slow_trace_us = 0;
  // Directory receiving slow-trace exemplars (created on first capture).
  std::string serve_slow_trace_dir = "slow-traces";

  /// Defaults overridden by the RESUFORMER_* environment variables above.
  /// The strict knobs (RESUFORMER_SERVE_*, RESUFORMER_TRACE_CAPACITY) keep
  /// their default when a set value is malformed or out of range, and
  /// `strict_error` (when non-null) receives InvalidArgument naming the
  /// variable — a serving entry point can refuse to start instead of
  /// running misconfigured. Passing nullptr logs the error as a warning.
  /// Only the first strict error is kept.
  [[nodiscard]] static RuntimeOptions FromEnv(Status* strict_error = nullptr);
};

namespace envparse {

/// Strict base-10 parse of the environment variable `name`. Returns
/// `fallback` when the variable is unset, empty, not a full integer
/// (trailing garbage rejected), overflows long/int, or falls outside
/// [min_value, max_value]. Never aborts: a malformed environment degrades
/// to defaults. Shared by RuntimeOptions::FromEnv and DefaultThreadCount so
/// RESUFORMER_THREADS parses identically everywhere.
int IntFromEnv(const char* name, int fallback, int min_value, int max_value);

/// Strict variant for knobs where misconfiguration must be loud: parses like
/// IntFromEnv, but a *set* variable that is malformed or outside
/// [min_value, max_value] keeps `fallback` AND reports InvalidArgument
/// naming the variable through `error` (first error wins; `error` must be
/// non-null). Unset/empty still silently yields `fallback`.
int StrictIntFromEnv(const char* name, int fallback, int min_value,
                     int max_value, Status* error);

}  // namespace envparse

}  // namespace resuformer

#endif  // RESUFORMER_COMMON_RUNTIME_OPTIONS_H_
