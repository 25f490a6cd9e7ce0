// rf_lint self-test fixture (never compiled; text-only input for
// `rf_lint --selftest`). Compliant shapes for the lock-on-tensor-path rule;
// none of them may fire:
//  * a function-local static's initializer that takes a lock (runs once
//    per process, not per tensor);
//  * a thread_local null-check registration block that takes a lock (runs
//    once per thread);
//  * a lock in a Tensor member that is not a storage entry point;
//  * a lock under a `Zeros` that belongs to some other class.

#include <mutex>

namespace lint_fixture {

class MetricRegistry {
 public:
  int* Lookup(const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    return name == nullptr ? nullptr : &slots_[0];
  }
  void Flush() { std::lock_guard<std::mutex> lock(mu_); }

 private:
  std::mutex mu_;
  int slots_[4] = {};
};

MetricRegistry& Registry();

class Tensor {
 public:
  static Tensor FromData(float* data) {
    static int* adopted = Registry().Lookup("tensor.adopted");
    ++*adopted;
    return Tensor(data);
  }

  static Tensor Full(float* data) {
    thread_local int* filled = nullptr;
    if (filled == nullptr) {
      filled = Registry().Lookup("tensor.filled");
    }
    ++*filled;
    return Tensor(data);
  }

  void Save() const { Registry().Flush(); }

  explicit Tensor(float* data) : data_(data) {}

 private:
  float* data_;
};

struct LockedGrid {
  static LockedGrid Zeros() {
    Registry().Flush();
    return LockedGrid();
  }
};

}  // namespace lint_fixture
