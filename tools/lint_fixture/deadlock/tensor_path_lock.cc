// rf_lint self-test fixture (never compiled; text-only input for
// `rf_lint --selftest`). Seeds the lock-on-tensor-path rule: every op
// output is born in Tensor::Zeros / MakeNode and dies in ~TensorImpl, so a
// mutex anywhere below them serializes every thread that computes. Three
// findings: Zeros reaches BufferPool::mu_ two hops down, ~TensorImpl locks
// directly, and MakeNode reaches the same lock through Tensor::Zeros.
// rf-lint-selftest-expect(lock-on-tensor-path=3)

#include <mutex>

namespace lint_fixture {

class BufferPool {
 public:
  float* Take(long n) {
    std::lock_guard<std::mutex> lock(mu_);
    return slab_ + n;
  }

 private:
  std::mutex mu_;
  float slab_[64] = {};
};

BufferPool& SharedPool();

class Tensor {
 public:
  static Tensor Zeros(long n) { return Tensor(Reserve(n)); }
  explicit Tensor(float* data) : data_(data) {}

 private:
  static float* Reserve(long n) { return SharedPool().Take(n); }
  float* data_;
};

struct TensorImpl {
  ~TensorImpl() {
    std::lock_guard<std::mutex> lock(live_mu);
    --live;
  }
  static std::mutex live_mu;
  static long live;
};

inline Tensor MakeNode(long n) { return Tensor::Zeros(n); }

}  // namespace lint_fixture
