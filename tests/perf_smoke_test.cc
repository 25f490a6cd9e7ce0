// Bounded-runtime smoke tests for the inference fast path (ctest label
// perf_smoke): one batched-inference iteration over generated resumes,
// asserting the fused attention path matches the composed reference within
// 1e-5 and that ParseBatch reproduces serial Parse exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/hierarchical_encoder.h"
#include "pipeline/pipeline.h"
#include "resumegen/corpus.h"

namespace resuformer {
namespace {

resumegen::Corpus SmallCorpus() {
  resumegen::CorpusConfig ccfg;
  ccfg.pretrain_docs = 4;
  ccfg.train_docs = 6;
  ccfg.val_docs = 2;
  ccfg.test_docs = 4;
  ccfg.seed = 99;
  return resumegen::GenerateCorpus(ccfg);
}

core::ResuFormerConfig SmallModelConfig() {
  core::ResuFormerConfig cfg;
  cfg.hidden = 16;
  cfg.sentence_layers = 1;
  cfg.document_layers = 1;
  cfg.num_heads = 2;
  cfg.ffn = 32;
  cfg.max_tokens_per_sentence = 12;
  cfg.max_sentences = 32;
  cfg.lstm_hidden = 12;
  return cfg;
}

TEST(PerfSmokeTest, BatchedInferenceFusedMatchesReference) {
  const resumegen::Corpus corpus = SmallCorpus();
  const text::WordPieceTokenizer tokenizer =
      resumegen::TrainTokenizer(corpus, 400);

  core::ResuFormerConfig fused_cfg = SmallModelConfig();
  fused_cfg.vocab_size = tokenizer.vocab().size();
  fused_cfg.runtime.use_fused_attention = true;
  core::ResuFormerConfig ref_cfg = fused_cfg;
  ref_cfg.runtime.use_fused_attention = false;

  // Same seed -> identical weights; only the attention execution path
  // differs.
  Rng rng_fused(5), rng_ref(5);
  core::HierarchicalEncoder fused(fused_cfg, &rng_fused);
  core::HierarchicalEncoder reference(ref_cfg, &rng_ref);
  fused.SetTraining(false);
  reference.SetTraining(false);

  std::vector<core::EncodedDocument> docs;
  for (const resumegen::GeneratedResume& r : corpus.test) {
    docs.push_back(core::EncodeForModel(r.document, tokenizer, fused_cfg));
  }
  ASSERT_FALSE(docs.empty());

  // Reference pass, serial over documents.
  std::vector<Tensor> ref_out(docs.size());
  {
    NoGradGuard no_grad;
    for (size_t i = 0; i < docs.size(); ++i) {
      ref_out[i] = reference.Encode(docs[i], nullptr);
    }
  }

  // One batched fused-inference iteration: documents fanned across the
  // pool, per-worker NoGradGuard (the same mechanics as
  // ResuFormerPipeline::ParseBatch).
  std::vector<Tensor> fused_out(docs.size());
  ThreadPool::Global().ParallelFor(
      static_cast<int64_t>(docs.size()),
      [&](int /*worker*/, int64_t begin, int64_t end) {
        NoGradGuard no_grad;
        for (int64_t i = begin; i < end; ++i) {
          fused_out[i] = fused.Encode(docs[i], nullptr);
        }
      });

  for (size_t d = 0; d < docs.size(); ++d) {
    ASSERT_TRUE(fused_out[d].defined());
    ASSERT_EQ(fused_out[d].shape(), ref_out[d].shape());
    for (int64_t i = 0; i < ref_out[d].size(); ++i) {
      ASSERT_NEAR(fused_out[d].data()[i], ref_out[d].data()[i], 1e-5f)
          << "doc " << d << " element " << i;
    }
  }
}

TEST(PerfSmokeTest, ParseBatchMatchesSerialParse) {
  const resumegen::Corpus corpus = SmallCorpus();

  pipeline::PipelineOptions options;
  options.model = SmallModelConfig();
  options.ner.hidden = 16;
  options.ner.layers = 1;
  options.ner.num_heads = 2;
  options.ner.ffn = 32;
  options.ner.max_tokens = 40;
  options.ner.lstm_hidden = 8;
  options.vocab_size = 400;
  options.pretrain_epochs = 1;
  options.pretrain_batch = 2;
  options.finetune.epochs = 2;
  options.finetune.patience = 2;
  options.selftrain.teacher_epochs = 1;
  options.selftrain.teacher_patience = 1;
  options.selftrain.iterations = 1;
  options.ner_data.train_sequences = 20;
  options.ner_data.val_sequences = 8;
  options.ner_data.test_sequences = 8;

  auto pipeline =
      pipeline::ResuFormerPipeline::TrainFromCorpus(corpus, options, nullptr);
  ASSERT_NE(pipeline, nullptr);

  std::vector<doc::Document> documents;
  for (const resumegen::GeneratedResume& r : corpus.test) {
    documents.push_back(r.document);
  }

  const std::vector<pipeline::StructuredResume> batched =
      pipeline->ParseBatch(documents);
  ASSERT_EQ(batched.size(), documents.size());
  for (size_t d = 0; d < documents.size(); ++d) {
    const pipeline::StructuredResume serial = pipeline->Parse(documents[d]);
    ASSERT_EQ(batched[d].blocks.size(), serial.blocks.size()) << "doc " << d;
    for (size_t b = 0; b < serial.blocks.size(); ++b) {
      EXPECT_EQ(batched[d].blocks[b].tag, serial.blocks[b].tag);
      EXPECT_EQ(batched[d].blocks[b].lines, serial.blocks[b].lines);
      ASSERT_EQ(batched[d].blocks[b].entities.size(),
                serial.blocks[b].entities.size());
      for (size_t e = 0; e < serial.blocks[b].entities.size(); ++e) {
        EXPECT_EQ(batched[d].blocks[b].entities[e].tag,
                  serial.blocks[b].entities[e].tag);
        EXPECT_EQ(batched[d].blocks[b].entities[e].text,
                  serial.blocks[b].entities[e].text);
      }
    }
  }

  // ParseWithStats returns the same resume as Parse plus sane measurements,
  // and enabling the full observability stack must not change results.
  metrics::MetricsRegistry::Global().SetEnabled(true);
  trace::TraceRecorder::Global().SetEnabled(true);
  const pipeline::ParseResult with_stats =
      pipeline->ParseWithStats(documents[0]);
  metrics::MetricsRegistry::Global().SetEnabled(false);
  trace::TraceRecorder::Global().SetEnabled(false);
  trace::TraceRecorder::Global().Reset();
  const pipeline::StructuredResume plain = pipeline->Parse(documents[0]);
  ASSERT_EQ(with_stats.resume.blocks.size(), plain.blocks.size());
  EXPECT_EQ(with_stats.stats.num_blocks,
            static_cast<int>(plain.blocks.size()));
  EXPECT_GT(with_stats.stats.num_sentences, 0);
  EXPECT_GT(with_stats.stats.wall_time_us, 0.0);
}

TEST(PerfSmokeTest, DisabledInstrumentationIsCheap) {
  // The off-path contract: a disabled TRACE_SPAN is one relaxed atomic load
  // and a branch. 10M of them must finish far inside a second even on a
  // loaded CI machine (the real <2% regression gate rides on bench_micro's
  // BENCH_MICRO.json; this guards against order-of-magnitude mistakes like
  // reading the clock while disabled).
  trace::TraceRecorder::Global().SetEnabled(false);
  metrics::MetricsRegistry::Global().SetEnabled(false);
  constexpr int kIterations = 10'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    TRACE_SPAN("perf.noop");
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Sanitizers instrument every atomic load, inflating the off-path by an
  // order of magnitude on their own; keep the guard meaningful there
  // without making it flaky on a loaded single-core runner.
#if !defined(RF_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RF_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RF_UNDER_SANITIZER 1
#endif
#if defined(RF_UNDER_SANITIZER)
  constexpr double kBudgetSeconds = 10.0;
#else
  constexpr double kBudgetSeconds = 1.0;
#endif
  EXPECT_LT(seconds, kBudgetSeconds)
      << "disabled TRACE_SPAN is not near-zero cost";
}

}  // namespace
}  // namespace resuformer
