#ifndef RESUFORMER_TENSOR_PLAN_H_
#define RESUFORMER_TENSOR_PLAN_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace resuformer {
namespace quant {
struct QuantizedTensor;
}  // namespace quant
namespace plan {

/// \brief Static inference plans: trace a forward pass once, replay it per
/// document with zero tape construction, zero shape inference and zero
/// allocator misses.
///
/// The layer follows the graph-executor/interpreter split: a thread-local
/// `Recorder` observes one representative forward pass (every supported op
/// in tensor/ops.cc appends an instruction when a recorder is active) and
/// `Recorder::Finish` flattens the capture into an immutable `Plan` — an
/// ordered instruction list whose kernels are pre-resolved function
/// pointers, whose buffer shapes are pre-computed, and whose temporaries
/// are pre-assigned offsets in one workspace buffer sized by last-use
/// liveness analysis. `PlanExecutor::Run` replays the plan against fresh
/// inputs (a `BindingSet`).
///
/// Safety contract: an op with no recording hook still calls
/// `plan::NoteNode()` from the shared node factory, so the recorder's node
/// count outruns its instruction count and `Finish` returns nullptr instead
/// of a silently incomplete plan. Callers treat a null plan as "use the
/// dynamic path".
///
/// Determinism contract: the executor calls the exact opcompute:: loops the
/// dynamic ops call, zeroing each output slot first just as Tensor::Zeros
/// does, so a replay is bit-identical to the dynamic forward at any fixed
/// thread count.
///
/// Thread safety: plans are immutable after Finish and hold no mutable
/// state; any number of threads may Run the same plan concurrently (each
/// Run replays into its own thread's workspace). Recorders are
/// thread-local and must not outlive their thread.

// Binding roles: the replay-variable inputs of a plan. Index roles feed
// GatherRows instructions (embedding lookups); tensor roles feed whole
// input matrices.
inline constexpr int kRoleTokenIds = 0;    // index: token ids incl. CLS
inline constexpr int kRoleLayout0 = 1;     // index: layout feature f buckets
                                           // (roles 1..7 = features 0..6)
inline constexpr int kRoleHiddenInput = 8;  // tensor: [m, D] sentence reprs
inline constexpr int kRoleVisualInput = 9;  // tensor: [m, visual] features
inline constexpr int kNumRoles = 10;
inline constexpr int kNumLayoutFeatures = 7;

/// One SSA value of a plan: a model constant (weights, literal index
/// embeddings' sources, initial LSTM states), a per-replay binding, or a
/// temporary at a pre-assigned workspace offset.
struct Value {
  enum Kind { kConstant, kBinding, kTemp };
  Kind kind = kTemp;
  int rows = 0;
  int cols = 0;
  int64_t size = 0;
  /// kConstant: keeps the traced storage alive for the plan's lifetime.
  std::shared_ptr<TensorImpl> constant;
  /// kBinding: which BindingSet tensor slot supplies the data.
  int role = -1;
  /// kTemp: float offset of this value's slot in the workspace.
  int64_t offset = -1;
};

struct Instr;
struct ExecContext;
/// Pre-resolved kernel entry: every instruction dispatches through one raw
/// function pointer, no virtual calls and no shape inference at replay.
using ExecFn = void (*)(const Instr&, ExecContext&);

struct Instr {
  ExecFn exec = nullptr;
  const char* name = "";  // op mnemonic, for diagnostics
  int in0 = -1, in1 = -1, in2 = -1;  // value ids; -1 = absent
  std::vector<int> extra_in;         // concat tails (inputs beyond in0..in2)
  int out = -1;
  float alpha = 0.0f;         // scale / eps / sign, op-dependent
  int p0 = 0, p1 = 0, p2 = 0; // op-dependent ints (dims, slice start/len)
  bool flag = false;          // broadcast, op-dependent
  std::vector<int> indices;   // literal gather indices
  int index_role = -1;        // gather indices come from the BindingSet
  int64_t scratch_offset = -1;  // attention prob slab / int8 quant scratch
  int64_t scratch_size = 0;
  /// Int8 rewrite (Recorder::Finish with EnableInt8): the constant operand
  /// quantized once at plan-build time, in NT layout [out, in]. The fp32
  /// constant stays referenced through in1 (it is the module's own weight
  /// storage, alive regardless), but the replay never reads it.
  std::shared_ptr<const quant::QuantizedTensor> qweight;
};

/// Immutable replayable program. Never mutated after Finish; safe to share
/// across threads by shared_ptr<const Plan>.
struct Plan {
  std::vector<Value> values;
  std::vector<Instr> instrs;
  int output = -1;             // value id of the traced output
  int64_t output_size = 0;
  int output_rows = 0;
  int output_cols = 0;
  int64_t workspace_floats = 0;
  /// Binding requirements recorded at trace time; Run validates the
  /// BindingSet against them before touching any kernel.
  struct RoleReq {
    int role = -1;
    int64_t size = 0;  // index count (index roles) or float count (tensors)
  };
  std::vector<RoleReq> index_roles;
  std::vector<RoleReq> tensor_roles;
};

/// Per-replay inputs. Pointers are borrowed for the duration of Run.
struct BindingSet {
  const std::vector<int>* indices[kNumRoles] = {};
  const float* tensors[kNumRoles] = {};
  int64_t tensor_sizes[kNumRoles] = {};
};

struct ExecContext {
  const Plan* plan = nullptr;
  const BindingSet* bindings = nullptr;
  float* workspace = nullptr;
  /// Resolved base pointer per value id (constant storage, binding pointer,
  /// or workspace slot), filled once at the top of Run. Points at a
  /// thread-local table owned by Run: replays reuse its capacity, so the
  /// steady state performs no per-call allocation here.
  const std::vector<float*>* ptrs = nullptr;
  bool failed = false;  // set by an instruction on a binding mismatch
};

/// \brief Thread-local trace recorder.
///
/// Construct one, run a representative forward under NoGradGuard, then call
/// Finish(output). While alive, every supported ops:: call on this thread
/// appends an instruction. At most one recorder per thread; nesting aborts.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The active recorder on this thread, or nullptr.
  static Recorder* Active();

  /// Declares `t` a per-replay tensor input under `role` (kRoleHiddenInput /
  /// kRoleVisualInput). Must be called before the traced forward reads it.
  void BindInputTensor(int role, const Tensor& t);

  /// The next GatherRows recorded on this thread takes its indices from
  /// `role` at replay instead of baking in the traced literals.
  void AnnotateNextGather(int role);

  /// Makes Finish() rewrite every GEMM whose B operand is a plan constant
  /// (Linear layers, attention projections, LSTM gates) to the int8 kernel:
  /// the weight is quantized per-tensor once at plan-build time and cached
  /// in the instruction; activations are quantized dynamically per replay.
  /// Must be called before the traced forward runs. Replays are then NOT
  /// bit-identical to the fp32 path (see the tier-1 accuracy gate), but
  /// remain deterministic at any thread count.
  void EnableInt8() { int8_enabled_ = true; }

  /// Flattens the capture into an immutable plan. Returns nullptr when the
  /// trace is unusable: an unsupported op ran (node/instruction count
  /// mismatch), a structural check failed, or `output` was never recorded.
  std::shared_ptr<const Plan> Finish(const Tensor& output);

  // -- Hooks called by tensor/ops.cc (no-ops when poisoned). --
  void NoteNode() { ++node_count_; }
  void Poison() { poisoned_ = true; }
  bool poisoned() const { return poisoned_; }

  void RecordUnary(ExecFn fn, const char* name, const Tensor& a,
                   const Tensor& out, float alpha = 0.0f);
  void RecordBinary(ExecFn fn, const char* name, const Tensor& a,
                    const Tensor& b, const Tensor& out, float alpha = 0.0f,
                    bool flag = false);
  void RecordGemm(ExecFn fn, const char* name, const Tensor& a,
                  const Tensor& b, const Tensor& out, int m, int k, int n);
  void RecordScaleAddSoftmax(const Tensor& a, const Tensor& bias,
                             const Tensor& out, float scale,
                             bool bias_broadcast);
  void RecordFusedAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                            const Tensor& bias, const Tensor& out, int t_len,
                            int dim, int num_heads);
  void RecordConcat(ExecFn fn, const char* name,
                    const std::vector<Tensor>& parts, const Tensor& out);
  void RecordSlice(ExecFn fn, const char* name, const Tensor& a,
                   const Tensor& out, int start, int len);
  void RecordGather(const Tensor& a, const std::vector<int>& indices,
                    const Tensor& out);
  void RecordLayerNorm(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, const Tensor& out, float eps);

 private:
  /// Value id for a traced tensor: a previously recorded output, a bound
  /// input, or (first sighting) a new constant whose storage is kept alive.
  int ValueIdFor(const Tensor& t);
  int RegisterOutput(const Tensor& out);
  Instr& Append(ExecFn fn, const char* name);

  /// Rewrites eligible GEMM instructions to int8 (called from Finish when
  /// int8 is enabled, before liveness analysis assigns scratch offsets).
  void RewriteGemmsToInt8();

  bool poisoned_ = false;
  bool int8_enabled_ = false;
  int64_t node_count_ = 0;
  int64_t instr_count_ = 0;
  int pending_gather_role_ = -1;
  std::vector<Value> values_;
  std::vector<Instr> instrs_;
  // Raw impl pointer -> value id. The shared_ptr keepalives (inside
  // values_[].constant and keepalive_) pin every traced impl so a freed
  // temporary's address can never be recycled into a false match.
  std::unordered_map<const TensorImpl*, int> ids_;
  std::vector<std::shared_ptr<TensorImpl>> keepalive_;
};

/// True when a recorder is active on this thread (cheap TLS read; ops.cc
/// guards its hook calls with this).
inline bool RecordingActive() { return Recorder::Active() != nullptr; }

/// Hook for ops.cc's MakeNode: counts nodes against recorded instructions
/// so unsupported ops poison the trace instead of silently vanishing.
inline void NoteNode() {
  if (Recorder* r = Recorder::Active()) r->NoteNode();
}

/// Convenience forward of Recorder::AnnotateNextGather for capture points
/// (encoder code) that do not hold the recorder. No-op when inactive.
inline void AnnotateNextGather(int role) {
  if (Recorder* r = Recorder::Active()) r->AnnotateNextGather(role);
}

class PlanExecutor {
 public:
  /// Replays `plan` against `bindings`, writing the plan output (row-major,
  /// plan.output_size floats) into `out`. Returns false — without touching
  /// `out` — when the bindings fail validation (missing role, wrong index
  /// count or tensor size, index out of range). The workspace is a
  /// zero-filled buffer reused across calls on the calling thread, so
  /// steady-state replay allocates nothing new (counter
  /// "plan.workspace_grows" ticks whenever it has to grow).
  static bool Run(const Plan& plan, const BindingSet& bindings, float* out);
};

// Exec functions are internal to plan.cc; ops.cc obtains them through these
// resolver handles so the hook sites stay one-liners.
struct ExecFns {
  ExecFn matmul_nn, matmul_nt, matmul_tn, transpose;
  ExecFn add_sub, mul, scale, add_scalar;
  ExecFn relu, gelu, tanh, sigmoid;
  ExecFn softmax, log_softmax;
  ExecFn concat_rows, concat_cols, slice_rows, slice_cols;
  ExecFn reshape, l2_normalize;
};
const ExecFns& GetExecFns();

}  // namespace plan
}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_PLAN_H_
