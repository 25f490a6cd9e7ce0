#ifndef RESUFORMER_TENSOR_AUTOGRAD_H_
#define RESUFORMER_TENSOR_AUTOGRAD_H_

#include <memory>
#include <vector>

namespace resuformer {

struct TensorImpl;

/// Runs reverse-mode autodiff from `root` (must be a scalar): seeds its
/// gradient with 1, topologically sorts the graph reachable through
/// parents edges, and calls each node's backward function in reverse order.
void RunBackward(const std::shared_ptr<TensorImpl>& root);

namespace autograd_internal {
/// Depth-first topological order (parents before children) of the graph
/// reachable from root. Exposed for tests.
std::vector<TensorImpl*> TopologicalOrder(TensorImpl* root);

/// Debug-mode graph validator, run by RunBackward before executing any
/// backward function when RF_DCHECK is compiled in (Debug builds or
/// RESUFORMER_DCHECK=ON). `order` is the topological order of the graph
/// under `root`. RF_DCHECK-fails on:
///  * topological inconsistency — a parent positioned at or after its
///    child, which is exactly what a reference cycle produces;
///  * shape/storage disagreement — a node whose shape product no longer
///    matches its data size;
///  * a gradient buffer sized differently from its tensor's data (the
///    "gradient shape matches output shape" invariant);
///  * double backward — a node whose backward_fn already ran in an earlier
///    RunBackward; its closure may capture scratch that has since been
///    freed, so running it again reads freed buffers.
/// Exposed for tests; a no-op when RF_DCHECK is compiled out.
void ValidateGraph(const TensorImpl* root,
                   const std::vector<TensorImpl*>& order);
}  // namespace autograd_internal

}  // namespace resuformer

#endif  // RESUFORMER_TENSOR_AUTOGRAD_H_
