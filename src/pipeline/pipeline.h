#ifndef RESUFORMER_PIPELINE_PIPELINE_H_
#define RESUFORMER_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/block_classifier.h"
#include "core/inference_plan.h"
#include "core/pretrainer.h"
#include "distant/ner_dataset.h"
#include "resumegen/corpus.h"
#include "selftrain/self_distill.h"

namespace resuformer {
namespace pipeline {

/// One extracted entity within a block.
struct StructuredEntity {
  doc::EntityTag tag;
  std::string text;
};

/// One recovered semantic block with its text lines and entities.
struct StructuredBlock {
  doc::BlockTag tag;
  std::vector<std::string> lines;
  std::vector<StructuredEntity> entities;
};

/// The hierarchical structure ResuFormer extracts from a resume.
struct StructuredResume {
  std::vector<StructuredBlock> blocks;
};

/// Per-document measurements captured alongside a parse. Counts are exact.
struct ParseStats {
  double wall_time_us = 0.0;
  int num_sentences = 0;  // sentences after encoding truncation
  int num_blocks = 0;
  int num_entities = 0;
  int64_t request_id = 0;  // echoed from the ParseRequest (0 = none)
};

/// A parse plus its measurements — returned by the *WithStats entry points.
struct ParseResult {
  StructuredResume resume;
  ParseStats stats;
};

/// \brief The one parse input every consumer builds — CLI, batch jobs and
/// the serve admission queue all speak this.
///
/// `deadline_ns` is an *absolute* steady-clock timestamp on the
/// trace::NowNs() timebase (0 = no deadline). A request whose deadline has
/// passed before its parse starts is answered with DeadlineExceeded instead
/// of being parsed; a parse already underway is never aborted mid-flight
/// (documents parse in milliseconds — cancellation points inside the
/// encoder would cost more than they save).
struct ParseRequest {
  doc::Document document;
  int64_t deadline_ns = 0;
  bool want_stats = false;
  /// Serving correlation id (0 = unassigned). ParseServer::Submit assigns a
  /// process-monotonic id; it is echoed on the response, annotated onto the
  /// request's trace spans, and prefixed onto kOkV2/kErrorV2 wire payloads.
  int64_t request_id = 0;
};

/// \brief The one parse output: a Status plus the payload. `resume` and
/// `stats` are meaningful only when `status.ok()`; `stats` is additionally
/// zeroed unless the request set `want_stats`. Server-side rejections
/// (DeadlineExceeded, ResourceExhausted, Unavailable) arrive through
/// `status` rather than an exception or a crash.
struct ParseResponse {
  Status status = Status::OK();
  StructuredResume resume;
  ParseStats stats;
  /// Echo of ParseRequest::request_id — set on every response, including
  /// rejections, so a client can correlate out-of-band.
  int64_t request_id = 0;

  bool ok() const { return status.ok(); }
};

/// Training budgets for the end-to-end pipeline.
struct PipelineOptions {
  core::ResuFormerConfig model;
  selftrain::NerModelConfig ner;
  int vocab_size = 2000;
  int pretrain_epochs = 2;
  int pretrain_batch = 4;
  core::FinetuneOptions finetune;
  selftrain::SelfTrainOptions selftrain;
  distant::NerDatasetConfig ner_data;
  uint64_t seed = 7;
  bool verbose = false;
};

/// Summary of an end-to-end training run.
struct TrainReport {
  core::PretrainStats pretrain;
  double block_val_accuracy = 0.0;
  double ner_val_f1 = 0.0;
};

/// \brief End-to-end resume semantic structure understanding: block
/// segmentation (pre-trained hierarchical model + BiLSTM/CRF) followed by
/// intra-block extraction (self-distilled distantly supervised NER).
class ResuFormerPipeline {
 public:
  /// Trains all stages from a generated corpus; `report` (optional)
  /// receives the training summary.
  static std::unique_ptr<ResuFormerPipeline> TrainFromCorpus(
      const resumegen::Corpus& corpus, const PipelineOptions& options,
      TrainReport* report = nullptr);

  /// The unified parse entry point: full parse (block segmentation +
  /// intra-block NER) under the request's deadline/stats policy.
  /// Inference-only: runs under NoGradGuard, so no autograd tape is built.
  /// Never throws — failures (currently only DeadlineExceeded) come back in
  /// `ParseResponse::status`.
  [[nodiscard]] ParseResponse Parse(const ParseRequest& request) const;

  /// Batched form: fans `requests` across the global tensor thread pool
  /// (one contiguous chunk of requests per worker, each worker under its
  /// own NoGradGuard; per-request tensor kernels then run inline). Output
  /// order matches input order, and every request produces the same
  /// response as a serial Parse(request) call. Per-request deadlines are
  /// honored individually — one expired request does not poison its batch.
  [[nodiscard]] std::vector<ParseResponse> Parse(
      const std::vector<ParseRequest>& requests) const;

  // --- deprecated pre-ParseRequest surface ---------------------------------
  // Thin wrappers over Parse(ParseRequest)/Parse(vector<ParseRequest>),
  // kept so existing callers compile unchanged. New code should build a
  // ParseRequest.

  /// \deprecated Use Parse(const ParseRequest&).
  StructuredResume Parse(const doc::Document& document) const;

  /// \deprecated Use Parse(const ParseRequest&) with want_stats = true.
  ParseResult ParseWithStats(const doc::Document& document) const;

  /// \deprecated Use Parse(const std::vector<ParseRequest>&).
  std::vector<StructuredResume> ParseBatch(
      const std::vector<doc::Document>& documents) const;

  /// \deprecated Use Parse(const std::vector<ParseRequest>&) with
  /// want_stats = true.
  std::vector<ParseResult> ParseBatchWithStats(
      const std::vector<doc::Document>& documents) const;

  /// Persists the trained pipeline (vocabulary + both models' parameters)
  /// into `directory` (must exist), plus a manifest recording the vocab
  /// size and model dimensions. Load() requires the same PipelineOptions
  /// used for training; with a manifest present it verifies the options
  /// against it and fails with FailedPrecondition (naming the mismatched
  /// field) instead of deserializing garbage. Checkpoints predating the
  /// manifest load with a warning.
  [[nodiscard]] Status Save(const std::string& directory) const;
  [[nodiscard]] static Result<std::unique_ptr<ResuFormerPipeline>> Load(
      const std::string& directory, const PipelineOptions& options);

  /// Renders a StructuredResume as indented, strictly valid JSON:
  /// {"blocks": [{"tag": ..., "lines": [...], "entities":
  /// [{"tag": ..., "text": ...}]}]}. All strings are escaped.
  static std::string ToPrettyString(const StructuredResume& resume);

  const text::WordPieceTokenizer& tokenizer() const { return *tokenizer_; }
  const core::BlockClassifier& block_classifier() const {
    return *block_classifier_;
  }
  const selftrain::NerModel& ner_model() const { return *ner_model_; }

 private:
  ResuFormerPipeline() = default;

  /// The actual parse implementation (always computes stats; callers that
  /// don't want them drop them). Everything public funnels here.
  ParseResult ParseDocument(const doc::Document& document) const;

  PipelineOptions options_;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer_;
  std::unique_ptr<core::BlockClassifier> block_classifier_;
  std::unique_ptr<selftrain::NerModel> ner_model_;
  // Non-null only when options_.model.runtime.use_inference_plan or
  // .use_int8 is set; ParseWithStats then routes block prediction through
  // the plan cache (int8 kernels when use_int8, fp32 replay otherwise).
  std::unique_ptr<core::InferencePlanner> planner_;
};

}  // namespace pipeline
}  // namespace resuformer

#endif  // RESUFORMER_PIPELINE_PIPELINE_H_
