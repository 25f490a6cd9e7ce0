#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

// The benchmark's own tracer. Spans are opened from benchmark code around
// calls into the program's public functions; nothing inside the program is
// instrumented. Each span carries a name, a start, an end, its parent and a
// document id. Spans are kept in per-thread buffers in memory and written
// out when the benchmark ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t doc = -1;
};

int64_t NowNs();

/// Turns span recording on or off (off: ScopedSpan reads the clock not at
/// all and records nothing).
void SetTracing(bool on);
bool TracingOn();

/// Opens a span on the calling thread; its parent is the thread's
/// innermost open span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t doc);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool on_;
};

/// Every span recorded so far, from all threads. Call with no span open.
std::vector<Span> CollectSpans();
void ClearSpans();

struct SelfTime {
  int64_t count = 0;
  double total_ns = 0;  // sum of durations
  double self_ns = 0;   // sum of durations minus the time children cover
};

/// Per-name totals. A span's self time is its duration minus the union of
/// its children's intervals.
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// One JSON object per line: name, start_ns, end_ns, id, parent, doc.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
