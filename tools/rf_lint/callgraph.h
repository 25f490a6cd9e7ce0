// rf_lint cross-file pass: stitches per-function facts (scopes.h) into a
// project call graph and runs the four graph rule families over it:
//
//   lock-order-cycle            — mutex acquisition-order graph across the
//                                 concurrency surface (src/serve/, common/
//                                 thread_pool, common/metrics, common/trace,
//                                 and the deadlock fixtures); any cycle is a
//                                 potential deadlock, reported with a witness
//                                 acquisition path for each direction.
//   blocking-reachable-under-lock — a call chain from inside a critical
//                                 section to a blocking syscall (transitive
//                                 upgrade of the old textual rule 12); the
//                                 full chain is printed. cv-waits and
//                                 functions marked `rf-lint-attr(nonblocking)`
//                                 are exempt.
//   alloc-in-parallel-for       — heap allocation or container growth
//                                 reachable from a ParallelFor body or a
//                                 plan-replay instruction handler (the PR-5
//                                 steady-state zero-alloc invariant, enforced
//                                 statically).
//   lock-on-tensor-path         — mutex acquisition reachable from the tensor
//                                 storage entry points (Tensor::Zeros/Full/
//                                 FromData, ~TensorImpl, ops' MakeNode),
//                                 outside one-time init: one lock there
//                                 serializes every thread that computes.
//
// Call resolution is by simple name with preference order: explicit
// `Foo::` qualifier match > same class > same file > all candidates (capped —
// a name with too many definitions is treated as unresolved rather than
// guessed at). Lambdas are only reachable as parallel-body roots; they are
// never resolved as callees, which keeps worker-thread bodies from being
// conflated with the code that spawns them.

#ifndef RESUFORMER_TOOLS_RF_LINT_CALLGRAPH_H_
#define RESUFORMER_TOOLS_RF_LINT_CALLGRAPH_H_

#include <string>
#include <vector>

#include "rf_lint/scopes.h"

namespace rflint {

struct GraphFinding {
  std::string rule;  // one of the four family names above
  std::string file;  // file the finding anchors to
  int line = 0;
  std::string message;
};

/// Runs all four graph rule families over the whole-project function list.
std::vector<GraphFinding> RunGraphRules(
    const std::vector<FunctionInfo>& functions);

}  // namespace rflint

#endif  // RESUFORMER_TOOLS_RF_LINT_CALLGRAPH_H_
