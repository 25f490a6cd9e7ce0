// Static inference-plan equivalence suite (ctest label: plan).
//
// The plan layer promises "purely a fast path": for every sequence-length
// bucket, replaying the traced plan must produce the same numbers the
// dynamic op graph produces. These tests pin that contract:
//
//  * bit-identical emissions and labels at a serial thread pool,
//  * <= 1e-6 agreement across thread-pool widths,
//  * no allocation in steady-state replay (the thread's workspace never
//    grows once the bucket has been replayed),
//  * one planner shared by concurrent reader threads (plans are immutable;
//    the tsan preset runs this suite).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/block_classifier.h"
#include "core/hierarchical_encoder.h"
#include "core/inference_plan.h"
#include "doc/block_tags.h"
#include "resumegen/corpus.h"

namespace resuformer {
namespace core {
namespace {

/// Tiny config (mirrors core_test): exercises every op the plan records
/// while keeping trace + replay fast.
ResuFormerConfig TinyConfig(int vocab) {
  ResuFormerConfig cfg;
  cfg.hidden = 16;
  cfg.sentence_layers = 1;
  cfg.document_layers = 1;
  cfg.num_heads = 2;
  cfg.ffn = 32;
  cfg.max_tokens_per_sentence = 12;
  cfg.max_sentences = 24;
  cfg.vocab_size = vocab;
  cfg.lstm_hidden = 12;
  return cfg;
}

struct Fixture {
  Fixture() : corpus(MakeCorpus()), tokenizer(MakeTokenizer(corpus)) {
    config = TinyConfig(tokenizer.vocab().size());
    Rng rng(11);
    classifier = std::make_unique<BlockClassifier>(config, &rng);
    classifier->SetTraining(false);
    for (const resumegen::GeneratedResume& r : corpus.train) {
      documents.push_back(EncodeForModel(r.document, tokenizer, config));
    }
  }

  static resumegen::Corpus MakeCorpus() {
    resumegen::CorpusConfig cfg;
    cfg.pretrain_docs = 2;
    cfg.train_docs = 6;
    cfg.val_docs = 2;
    cfg.test_docs = 2;
    cfg.seed = 13;
    return resumegen::GenerateCorpus(cfg);
  }
  static text::WordPieceTokenizer MakeTokenizer(
      const resumegen::Corpus& corpus) {
    return resumegen::TrainTokenizer(corpus, 400);
  }

  resumegen::Corpus corpus;
  text::WordPieceTokenizer tokenizer;
  ResuFormerConfig config;
  std::unique_ptr<BlockClassifier> classifier;
  std::vector<EncodedDocument> documents;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

/// Dynamic-path emissions flattened row-major (the layout EmissionsViaPlan
/// writes).
std::vector<float> DynamicEmissions(const BlockClassifier& classifier,
                                    const EncodedDocument& document) {
  NoGradGuard guard;
  Tensor em = classifier.Emissions(document, nullptr);
  std::vector<float> out;
  out.reserve(static_cast<size_t>(em.rows()) * em.cols());
  for (int r = 0; r < em.rows(); ++r) {
    for (int c = 0; c < em.cols(); ++c) out.push_back(em.at(r, c));
  }
  return out;
}

TEST(InferencePlanTest, ReplayMatchesDynamicEmissionsBitExactSerial) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  InferencePlanner planner(fx.classifier.get());
  ASSERT_FALSE(fx.documents.empty());
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    const std::vector<float> want =
        DynamicEmissions(*fx.classifier, document);
    // Two replays per document: the first builds the bucket's plans, the
    // second takes the pure cache-hit path. Both must be bit-identical.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<float> got;
      ASSERT_TRUE(planner.EmissionsViaPlan(document, &got))
          << "document " << d << " pass " << pass;
      ASSERT_EQ(got.size(), want.size()) << "document " << d;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "document " << d << " pass " << pass << " element " << i;
      }
    }
  }
}

TEST(InferencePlanTest, PredictMatchesDynamicLabels) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  InferencePlanner planner(fx.classifier.get());
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const std::vector<int> want = fx.classifier->Predict(fx.documents[d]);
    const std::vector<int> got = planner.Predict(fx.documents[d]);
    EXPECT_EQ(got, want) << "document " << d;
  }
}

TEST(InferencePlanTest, ReplayAgreesAcrossThreadCounts) {
  auto& fx = GetFixture();
  const EncodedDocument& document = fx.documents[0];

  ThreadPool::Global().SetNumThreads(1);
  InferencePlanner serial_planner(fx.classifier.get());
  std::vector<float> serial;
  ASSERT_TRUE(serial_planner.EmissionsViaPlan(document, &serial));

  for (int threads : {2, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    InferencePlanner planner(fx.classifier.get());
    std::vector<float> got;
    ASSERT_TRUE(planner.EmissionsViaPlan(document, &got)) << threads;
    ASSERT_EQ(got.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(got[i], serial[i], 1e-6)
          << "threads=" << threads << " element " << i;
    }
  }
  ThreadPool::Global().SetNumThreads(1);
}

TEST(InferencePlanTest, SteadyStateReplayNeverGrowsTheWorkspace) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  InferencePlanner planner(fx.classifier.get());
  const EncodedDocument& document = fx.documents[0];
  const metrics::Counter* grows =
      metrics::MetricsRegistry::Global().GetCounter("plan.workspace_grows");

  // A fresh thread starts with an empty workspace, so its first replay must
  // grow it (the counter is live); every later replay of the same bucket on
  // that thread must reuse it.
  int64_t warmup_grows = 0, steady_grows = 0;
  bool ok = true;
  std::thread replayer([&]() {
    std::vector<float> emissions;
    const int64_t start = grows->value();
    ok = planner.EmissionsViaPlan(document, &emissions);
    const int64_t warm = grows->value();
    for (int pass = 0; pass < 3; ++pass) {
      ok = ok && planner.EmissionsViaPlan(document, &emissions);
    }
    warmup_grows = warm - start;
    steady_grows = grows->value() - warm;
  });
  replayer.join();
  ASSERT_TRUE(ok);
  EXPECT_GT(warmup_grows, 0);
  EXPECT_EQ(steady_grows, 0);
}

TEST(InferencePlanTest, ConcurrentRepliesShareOnePlanner) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  InferencePlanner planner(fx.classifier.get());

  std::vector<std::vector<int>> want(fx.documents.size());
  for (size_t d = 0; d < fx.documents.size(); ++d) {
    want[d] = fx.classifier->Predict(fx.documents[d]);
  }

  // Reader threads race the first builds and then replay shared immutable
  // plans; every result must match the dynamic labels.
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        const size_t d = (t + iter) % fx.documents.size();
        if (planner.Predict(fx.documents[d]) != want[d]) ++mismatches[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Int8 plan routing (PR 7): with runtime.use_int8 the recorder rewrites
// constant-weight GEMMs to quantized kernels at plan build. The int8 path
// must replay without fallback, stay deterministic across thread counts,
// and track the fp32 emissions closely on this tiny model.
// ---------------------------------------------------------------------------

/// A classifier with identical weights to the fixture's (same seed/config)
/// but runtime.use_int8 set, so its planner builds int8 plans.
std::unique_ptr<BlockClassifier> MakeInt8Twin(const Fixture& fx) {
  ResuFormerConfig cfg = fx.config;
  cfg.runtime.use_int8 = true;
  Rng rng(11);  // same seed as the fixture -> identical parameters
  auto classifier = std::make_unique<BlockClassifier>(cfg, &rng);
  classifier->SetTraining(false);
  return classifier;
}

TEST(InferencePlanInt8Test, ReplayRewritesGemmsAndTracksFp32) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  InferencePlanner planner(int8_cls.get());
  auto& reg = metrics::MetricsRegistry::Global();
  const int64_t rewrites_before = reg.GetCounter("quant.instrs_rewritten")->value();
  const int64_t fallbacks_before = reg.GetCounter("plan.fallbacks")->value();

  for (size_t d = 0; d < fx.documents.size(); ++d) {
    const EncodedDocument& document = fx.documents[d];
    const std::vector<float> want = DynamicEmissions(*fx.classifier, document);
    std::vector<float> got;
    ASSERT_TRUE(planner.EmissionsViaPlan(document, &got)) << "document " << d;
    ASSERT_EQ(got.size(), want.size());
    // Quantization error compounds through the encoder stack; on this tiny
    // model the emissions stay within a small absolute band of fp32. The
    // end-to-end accuracy gate lives in integration_test.cc.
    float max_diff = 0.0f;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(std::isfinite(got[i])) << "document " << d << " elt " << i;
      max_diff = std::max(max_diff, std::abs(got[i] - want[i]));
    }
    EXPECT_LT(max_diff, 0.75f) << "document " << d;
  }
  EXPECT_GT(reg.GetCounter("quant.instrs_rewritten")->value(), rewrites_before);
  EXPECT_EQ(reg.GetCounter("plan.fallbacks")->value(), fallbacks_before);
}

TEST(InferencePlanInt8Test, ReplayIsBitIdenticalAcrossThreadCounts) {
  auto& fx = GetFixture();
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  const EncodedDocument& document = fx.documents[0];

  ThreadPool::Global().SetNumThreads(1);
  InferencePlanner serial_planner(int8_cls.get());
  std::vector<float> serial;
  ASSERT_TRUE(serial_planner.EmissionsViaPlan(document, &serial));

  // Int32 accumulation is exact, so unlike the fp32 path (<= 1e-6 band)
  // the int8 replay is bit-identical at any pool width.
  ThreadPool::Global().SetNumThreads(4);
  InferencePlanner parallel_planner(int8_cls.get());
  std::vector<float> parallel;
  ASSERT_TRUE(parallel_planner.EmissionsViaPlan(document, &parallel));
  ThreadPool::Global().SetNumThreads(1);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i], serial[i]) << "element " << i;
  }
}

TEST(InferencePlanInt8Test, PredictLabelsMostlyAgreeWithFp32) {
  auto& fx = GetFixture();
  ThreadPool::Global().SetNumThreads(1);
  std::unique_ptr<BlockClassifier> int8_cls = MakeInt8Twin(fx);
  InferencePlanner planner(int8_cls.get());
  int total = 0, agree = 0;
  for (const EncodedDocument& document : fx.documents) {
    const std::vector<int> want = fx.classifier->Predict(document);
    const std::vector<int> got = planner.Predict(document);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ++total;
      if (got[i] == want[i]) ++agree;
    }
  }
  ASSERT_GT(total, 0);
  // Untrained tiny model: logits sit near ties, so perfect agreement is not
  // expected — but wholesale divergence means the int8 path is broken.
  EXPECT_GE(static_cast<double>(agree) / total, 0.9)
      << agree << "/" << total << " labels agree";
}

}  // namespace
}  // namespace core
}  // namespace resuformer
