#include "tensor/tensor.h"

#include <sstream>

#include "common/logging.h"
#include "tensor/autograd.h"

namespace resuformer {

namespace {
thread_local bool g_grad_enabled = true;

int64_t ShapeProduct(const std::vector<int>& shape) {
  int64_t n = 1;
  for (int d : shape) {
    RF_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}
}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }
bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

Tensor Tensor::Zeros(std::vector<int> shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(static_cast<size_t>(ShapeProduct(shape)), 0.0f);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Full(std::vector<int> shape, float value, bool requires_grad) {
  Tensor t = Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = value;
  return t;
}

Tensor Tensor::FromData(std::vector<int> shape, std::vector<float> data,
                        bool requires_grad) {
  RF_CHECK_EQ(ShapeProduct(shape), static_cast<int64_t>(data.size()));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Randn(std::vector<int> shape, Rng* rng, float stddev,
                     bool requires_grad) {
  Tensor t = Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Uniform(std::vector<int> shape, Rng* rng, float lo, float hi,
                       bool requires_grad) {
  Tensor t = Zeros(std::move(shape), requires_grad);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

const std::vector<int>& Tensor::shape() const {
  RF_CHECK(defined());
  return impl_->shape;
}

int Tensor::rank() const { return static_cast<int>(shape().size()); }

int Tensor::dim(int axis) const {
  RF_CHECK_LT(axis, rank());
  return impl_->shape[axis];
}

int64_t Tensor::size() const {
  RF_CHECK(defined());
  return impl_->size();
}

int Tensor::rows() const { return rank() == 1 ? 1 : dim(0); }
int Tensor::cols() const { return rank() == 1 ? dim(0) : dim(1); }

float* Tensor::data() {
  RF_CHECK(defined());
  return impl_->data_ptr();
}
const float* Tensor::data() const {
  RF_CHECK(defined());
  return impl_->data_ptr();
}

float* Tensor::grad() {
  RF_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad.data();
}
const float* Tensor::grad() const {
  RF_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad.data();
}

float& Tensor::at(int r, int c) {
  RF_CHECK_EQ(rank(), 2);
  return impl_->data_ptr()[static_cast<size_t>(r) * cols() + c];
}
float Tensor::at(int r, int c) const {
  RF_CHECK_EQ(rank(), 2);
  return impl_->data_ptr()[static_cast<size_t>(r) * cols() + c];
}
float& Tensor::at(int i) {
  RF_CHECK_EQ(rank(), 1);
  return impl_->data_ptr()[i];
}
float Tensor::at(int i) const {
  RF_CHECK_EQ(rank(), 1);
  return impl_->data_ptr()[i];
}

bool Tensor::requires_grad() const {
  RF_CHECK(defined());
  return impl_->requires_grad;
}

void Tensor::set_requires_grad(bool requires_grad) {
  RF_CHECK(defined());
  impl_->requires_grad = requires_grad;
  // The grad buffer stays unallocated until backward (or grad()) touches it:
  // an empty buffer is how optimizers recognize parameters that never
  // participated in a loss.
}

void Tensor::ZeroGrad() {
  RF_CHECK(defined());
  impl_->grad.assign(static_cast<size_t>(impl_->size()), 0.0f);
}

void Tensor::Backward() { RunBackward(impl_); }

Tensor Tensor::Detach() const {
  RF_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data.assign(impl_->data_ptr(), impl_->data_ptr() + impl_->size());
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

void Tensor::AttachExternalStorage(float* ptr, std::shared_ptr<void> owner) {
  RF_CHECK(defined());
  RF_CHECK(ptr != nullptr);
  TensorImpl* im = impl_.get();
  std::vector<float>().swap(im->data);
  im->external_data = ptr;
  im->external_owner = std::move(owner);
}

bool Tensor::has_external_storage() const {
  RF_CHECK(defined());
  return impl_->external_data != nullptr;
}

float Tensor::item() const {
  RF_CHECK_EQ(size(), 1);
  return impl_->data_ptr()[0];
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < rank(); ++i) {
    if (i > 0) os << ", ";
    os << impl_->shape[i];
  }
  os << "]";
  return os.str();
}

}  // namespace resuformer
