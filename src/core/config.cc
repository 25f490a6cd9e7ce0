#include "core/config.h"

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace resuformer {
namespace core {

void ApplyRuntimeOptions(const RuntimeOptions& options) {
  // SetNumThreads resolves <= 0 to the RESUFORMER_THREADS env override or
  // hardware concurrency, and is a no-op when the size is unchanged.
  ThreadPool::Global().SetNumThreads(options.threads);
  metrics::MetricsRegistry::Global().SetEnabled(options.enable_metrics);
  trace::TraceRecorder::Global().SetBufferCapacity(
      options.trace_buffer_capacity);
  trace::TraceRecorder::Global().SetEnabled(options.enable_tracing);
}

void ApplyThreadConfig(const ResuFormerConfig& config) {
  ApplyRuntimeOptions(config.runtime);
}

}  // namespace core
}  // namespace resuformer
