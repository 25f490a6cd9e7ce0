#include "common/runtime_options.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace resuformer {

namespace {

/// "0", "false", "off", "no" (any case) → false; anything else set → true.
bool ParseBoolEnv(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  std::string v(env);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return !(v == "0" || v == "false" || v == "off" || v == "no");
}

}  // namespace

namespace envparse {

namespace {

/// Shared strict base-10 parse: full-string integer, overflow rejected.
bool ParseFullInt(const char* text, long* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;  // no digits / trailing junk
  if (errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

int IntFromEnv(const char* name, int fallback, int min_value, int max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  // std::atoi is undefined on overflow; strtol reports it via ERANGE and
  // hands back where parsing stopped, so malformed or out-of-range values
  // ("8x", "1e3", "99999999999999999999") fall back instead of aborting or
  // silently truncating.
  long v = 0;
  if (!ParseFullInt(env, &v)) return fallback;
  if (v < min_value || v > max_value) return fallback;
  return static_cast<int>(v);
}

int StrictIntFromEnv(const char* name, int fallback, int min_value,
                     int max_value, Status* error) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  long v = 0;
  const bool parsed = ParseFullInt(env, &v);
  if (parsed && v >= min_value && v <= max_value) return static_cast<int>(v);
  if (error != nullptr && error->ok()) {  // first error wins
    *error = Status::InvalidArgument(
        std::string(name) + " must be an integer in [" +
        std::to_string(min_value) + ", " + std::to_string(max_value) +
        "], got '" + env + "'");
  }
  return fallback;
}

}  // namespace envparse

RuntimeOptions RuntimeOptions::FromEnv(Status* strict_error) {
  RuntimeOptions opts;
  Status strict;
  // threads stays 0 ("auto") unless the env names an explicit width; the
  // thread pool resolves 0 through the same variable, so either path agrees.
  opts.threads = envparse::IntFromEnv("RESUFORMER_THREADS", 0, 1, 256);
  opts.use_fused_attention =
      ParseBoolEnv("RESUFORMER_FUSED_ATTENTION", opts.use_fused_attention);
  opts.use_inference_plan =
      ParseBoolEnv("RESUFORMER_USE_PLAN", opts.use_inference_plan);
  opts.use_int8 = ParseBoolEnv("RESUFORMER_USE_INT8", opts.use_int8);
  opts.save_rfp3 = ParseBoolEnv("RESUFORMER_SAVE_RFP3", opts.save_rfp3);
  opts.enable_metrics =
      ParseBoolEnv("RESUFORMER_METRICS", opts.enable_metrics);
  opts.enable_tracing = ParseBoolEnv("RESUFORMER_TRACE", opts.enable_tracing);
  // Strict: a mis-sized span ring silently shrinking to the default would
  // make a capture look complete when it is not.
  opts.trace_buffer_capacity =
      envparse::StrictIntFromEnv("RESUFORMER_TRACE_CAPACITY",
                                 opts.trace_buffer_capacity, 16, 1 << 24,
                                 &strict);

  // Serving knobs are strict (see the header): zero/negative or malformed
  // values keep the default and surface an error naming the variable.
  opts.serve_max_batch = envparse::StrictIntFromEnv(
      "RESUFORMER_SERVE_MAX_BATCH", opts.serve_max_batch, 1, 4096, &strict);
  opts.serve_max_queue_delay_ms = envparse::StrictIntFromEnv(
      "RESUFORMER_SERVE_MAX_QUEUE_DELAY_MS", opts.serve_max_queue_delay_ms, 1,
      60 * 1000, &strict);
  opts.serve_queue_capacity = envparse::StrictIntFromEnv(
      "RESUFORMER_SERVE_QUEUE_CAPACITY", opts.serve_queue_capacity, 1,
      1 << 20, &strict);
  opts.serve_workers = envparse::StrictIntFromEnv(
      "RESUFORMER_SERVE_WORKERS", opts.serve_workers, 1, 256, &strict);
  opts.serve_stats_window_ms = envparse::StrictIntFromEnv(
      "RESUFORMER_SERVE_STATS_WINDOW_MS", opts.serve_stats_window_ms, 10,
      24 * 60 * 60 * 1000, &strict);
  opts.serve_slow_trace_us = envparse::StrictIntFromEnv(
      "RESUFORMER_SERVE_SLOW_TRACE_US", opts.serve_slow_trace_us, 0,
      INT32_MAX, &strict);
  const char* slow_dir = std::getenv("RESUFORMER_SERVE_SLOW_TRACE_DIR");
  if (slow_dir != nullptr && slow_dir[0] != '\0') {
    opts.serve_slow_trace_dir = slow_dir;
  }
  if (strict_error != nullptr) {
    *strict_error = strict;
  } else {
    WarnIfError(strict, "RuntimeOptions::FromEnv");
  }
  return opts;
}

}  // namespace resuformer
