#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<int64_t> g_next_id{1};

struct ThreadBuffer {
  std::mutex mu;  // owner appends, CollectSpans reads
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> local = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(b);
    return b;
  }();
  return *local;
}

thread_local int64_t t_open = 0;  // innermost open span id on this thread

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_on.store(on); }
bool TracingOn() { return g_on.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, int64_t doc) : on_(TracingOn()) {
  if (!on_) return;
  span_.name = name;
  span_.doc = doc;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open;
  t_open = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  t_open = span_.parent;
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.spans.push_back(span_);
}

std::vector<Span> CollectSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : Buffers()) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : Buffers()) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    b->spans.clear();
  }
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    int64_t lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += static_cast<double>(hi - lo);
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += static_cast<double>(hi - lo);
    SelfTime& st = out[s.name];
    st.count += 1;
    st.total_ns += dur;
    st.self_ns += dur - covered;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"doc\":" << s.doc << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
