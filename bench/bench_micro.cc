// Micro-benchmarks (google-benchmark) backing the Time/Resume rows of
// Table II and the Figure 3 latency claim: per-component throughput of the
// sentence-level vs token-level processing paths, CRF decoding, the
// tokenizer and the sentence assembler — plus serial-vs-parallel tensor
// kernel throughput (the Arg is the thread count) so the thread-pool
// speedup is visible in CI output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/layout_token_model.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/block_classifier.h"
#include "core/inference_plan.h"
#include "crf/linear_crf.h"
#include "doc/sentence_assembler.h"
#include "nn/serialize.h"
#include "pipeline/pipeline.h"
#include "resumegen/corpus.h"
#include "rf_lint/rules.h"
#include "serve/server.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace resuformer {
namespace {

struct Env {
  Env() {
    resumegen::CorpusConfig cfg;
    cfg.pretrain_docs = 4;
    cfg.train_docs = 2;
    cfg.val_docs = 1;
    cfg.test_docs = 1;
    cfg.seed = 3;
    corpus = resumegen::GenerateCorpus(cfg);
    tokenizer = std::make_unique<text::WordPieceTokenizer>(
        resumegen::TrainTokenizer(corpus, 1500));
    model_cfg.vocab_size = tokenizer->vocab().size();
    Rng rng(1);
    classifier = std::make_unique<core::BlockClassifier>(model_cfg, &rng);
    classifier->SetTraining(false);
    encoded = core::EncodeForModel(corpus.test[0].document, *tokenizer,
                                   model_cfg);
    token_cfg.vocab_size = tokenizer->vocab().size();
    Rng rng2(2);
    token_model = std::make_unique<baselines::LayoutTokenModel>(
        token_cfg, tokenizer.get(), &rng2, 0);
    token_model->SetTraining(false);
  }
  resumegen::Corpus corpus;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  core::ResuFormerConfig model_cfg;
  baselines::TokenModelConfig token_cfg;
  std::unique_ptr<core::BlockClassifier> classifier;
  std::unique_ptr<baselines::LayoutTokenModel> token_model;
  core::EncodedDocument encoded;
};

Env& GetEnv() {
  static Env* env = new Env();
  return *env;
}

void BM_HierarchicalPredict(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.classifier->Predict(env.encoded));
  }
}
BENCHMARK(BM_HierarchicalPredict)->Unit(benchmark::kMillisecond);

// --- tensor-kernel throughput, serial vs parallel (Arg = thread count) ---

void BM_GemmForward(benchmark::State& state) {
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(21);
  Tensor a = Tensor::Randn({256, 256}, &rng);
  Tensor b = Tensor::Randn({256, 256}, &rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 256 * 256 * 256);
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_GemmForward)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GemmTrainStep(benchmark::State& state) {
  // Forward plus both backward products (dA = dC*B^T, dB = A^T*dC) on the
  // acceptance shape: 256x256 activations into a 256-class projection.
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(22);
  Tensor a = Tensor::Randn({256, 256}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({256, 256}, &rng, 1.0f, /*requires_grad=*/true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Tensor loss = ops::Mean(ops::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 2LL * 256 * 256 * 256);
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_GemmTrainStep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_RowSoftmax(benchmark::State& state) {
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(23);
  Tensor x = Tensor::Randn({512, 256}, &rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Softmax(x));
  }
  state.SetItemsProcessed(state.iterations() * 512LL * 256);
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_RowSoftmax)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_EncoderForward(benchmark::State& state) {
  // Encoder-forward at a width where the per-op sizes clear the parallel
  // thresholds (the Table-scale config with hidden=32 stays serial by
  // design — its matrices are too small to amortize a fork-join).
  Env& env = GetEnv();
  core::ResuFormerConfig cfg = env.model_cfg;
  cfg.hidden = 128;
  cfg.ffn = 256;
  cfg.runtime.threads = static_cast<int>(state.range(0));
  Rng rng(24);
  core::BlockClassifier classifier(cfg, &rng);
  classifier.SetTraining(false);
  const core::EncodedDocument encoded =
      core::EncodeForModel(env.corpus.test[0].document, *env.tokenizer, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Predict(encoded));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_EncoderForward)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- inference fast path: fused attention, batched parse ---

// Attention core at the paper dimensions (T=350 sentences, D=768, H=12;
// Section V). Composed = the reference per-head op chain with materialized
// transposes and slice/concat copies; fused = one FusedMultiHeadAttention
// node over strided head views. Arg = thread count.
constexpr int kPaperT = 350, kPaperD = 768, kPaperH = 12;

Tensor ComposedAttentionCore(const Tensor& q, const Tensor& k,
                             const Tensor& v, int num_heads) {
  const int head_dim = q.cols() / num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::vector<Tensor> heads;
  for (int h = 0; h < num_heads; ++h) {
    const int off = h * head_dim;
    Tensor qh = ops::SliceCols(q, off, head_dim);
    Tensor kh = ops::SliceCols(k, off, head_dim);
    Tensor vh = ops::SliceCols(v, off, head_dim);
    Tensor scores = ops::Scale(ops::MatMul(qh, ops::Transpose(kh)), scale);
    heads.push_back(ops::MatMul(ops::Softmax(scores), vh));
  }
  return ops::ConcatCols(heads);
}

void BM_AttentionComposed(benchmark::State& state) {
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(31);
  Tensor q = Tensor::Randn({kPaperT, kPaperD}, &rng, 0.1f);
  Tensor k = Tensor::Randn({kPaperT, kPaperD}, &rng, 0.1f);
  Tensor v = Tensor::Randn({kPaperT, kPaperD}, &rng, 0.1f);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComposedAttentionCore(q, k, v, kPaperH));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_AttentionComposed)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AttentionFused(benchmark::State& state) {
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(31);  // same seed: identical inputs to the composed run
  Tensor q = Tensor::Randn({kPaperT, kPaperD}, &rng, 0.1f);
  Tensor k = Tensor::Randn({kPaperT, kPaperD}, &rng, 0.1f);
  Tensor v = Tensor::Randn({kPaperT, kPaperD}, &rng, 0.1f);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops::FusedMultiHeadAttention(q, k, v, Tensor(), kPaperH));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_AttentionFused)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MatMulTransposedB(benchmark::State& state) {
  // Weight-tied vocab projection shape: [tokens, hidden] x [vocab, hidden]^T.
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(32);
  Tensor a = Tensor::Randn({128, 256}, &rng);
  Tensor b = Tensor::Randn({2000, 256}, &rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMulTransposedB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 128 * 256 * 2000);
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_MatMulTransposedB)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MatMulWithTranspose(benchmark::State& state) {
  // The composed equivalent of BM_MatMulTransposedB (materializes B^T).
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(32);
  Tensor a = Tensor::Randn({128, 256}, &rng);
  Tensor b = Tensor::Randn({2000, 256}, &rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, ops::Transpose(b)));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 128 * 256 * 2000);
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_MatMulWithTranspose)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Document-batch throughput (docs/sec): a serial Parse(ParseRequest) loop
// vs the pooled Parse(std::vector<ParseRequest>) entry point, on a
// fused-attention pipeline and a composed-reference pipeline. Arg0: 0 = serial/fused, 1 = batched/fused,
// 2 = serial/reference, 3 = batched/reference.
struct ParseEnv {
  ParseEnv() {
    resumegen::CorpusConfig ccfg;
    ccfg.pretrain_docs = 4;
    ccfg.train_docs = 6;
    ccfg.val_docs = 2;
    ccfg.test_docs = 8;
    ccfg.seed = 55;
    corpus = resumegen::GenerateCorpus(ccfg);
    for (const resumegen::GeneratedResume& r : corpus.test) {
      documents.push_back(r.document);
      pipeline::ParseRequest request;
      request.document = r.document;
      requests.push_back(std::move(request));
    }
    pipeline::PipelineOptions options;
    options.model.hidden = 64;
    options.model.sentence_layers = 1;
    options.model.document_layers = 1;
    options.model.num_heads = 4;
    options.model.ffn = 128;
    options.model.max_tokens_per_sentence = 16;
    options.model.max_sentences = 48;
    options.model.lstm_hidden = 16;
    options.ner.hidden = 32;
    options.ner.layers = 1;
    options.ner.num_heads = 2;
    options.ner.ffn = 64;
    options.ner.max_tokens = 48;
    options.ner.lstm_hidden = 12;
    options.vocab_size = 600;
    options.pretrain_epochs = 1;
    options.finetune.epochs = 2;
    options.finetune.patience = 2;
    options.selftrain.teacher_epochs = 1;
    options.selftrain.teacher_patience = 1;
    options.selftrain.iterations = 1;
    options.ner_data.train_sequences = 20;
    options.ner_data.val_sequences = 8;
    options.ner_data.test_sequences = 8;
    fused = pipeline::ResuFormerPipeline::TrainFromCorpus(corpus, options,
                                                          nullptr);
    options.model.runtime.use_fused_attention = false;
    reference = pipeline::ResuFormerPipeline::TrainFromCorpus(
        corpus, options, nullptr);
  }
  resumegen::Corpus corpus;
  std::vector<doc::Document> documents;
  std::vector<pipeline::ParseRequest> requests;
  std::unique_ptr<pipeline::ResuFormerPipeline> fused;
  std::unique_ptr<pipeline::ResuFormerPipeline> reference;
};

ParseEnv& GetParseEnv() {
  static ParseEnv* env = new ParseEnv();
  return *env;
}

void BM_ParseThroughput(benchmark::State& state) {
  ParseEnv& env = GetParseEnv();
  const bool batched = (state.range(0) % 2) == 1;
  const bool use_fused = state.range(0) < 2;
  const pipeline::ResuFormerPipeline& pipe =
      use_fused ? *env.fused : *env.reference;
  ThreadPool::Global().SetNumThreads(batched ? 4 : 1);
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(pipe.Parse(env.requests));
    } else {
      for (const pipeline::ParseRequest& request : env.requests) {
        benchmark::DoNotOptimize(pipe.Parse(request));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.requests.size()));
  state.counters["docs"] = static_cast<double>(env.requests.size());
  state.counters["threads"] = batched ? 4.0 : 1.0;
  state.counters["fused"] = use_fused ? 1.0 : 0.0;
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_ParseThroughput)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Serve-path throughput (docs/sec) and tail latency: Arg concurrent
// submitter threads push the 8-document set through the ParseServer
// admission queue and block on their futures, so cross-request coalescing
// and the micro-batch flush policy are on the measured path. p99_us is the
// admission-to-response-ready e2e latency from serve.e2e_us (log2-bucket
// resolution, see Histogram::ApproxPercentile).
void BM_ServerThroughput(benchmark::State& state) {
  ParseEnv& env = GetParseEnv();
  const int submitters = static_cast<int>(state.range(0));
  ThreadPool::Global().SetNumThreads(4);
  metrics::MetricsRegistry::Global().SetEnabled(true);
  metrics::Histogram* e2e =
      metrics::MetricsRegistry::Global().GetHistogram("serve.e2e_us");
  e2e->Reset();

  serve::ServerOptions options;
  options.max_batch = 8;
  options.max_queue_delay_ms = 2;
  options.queue_capacity = 1024;
  options.workers = 2;
  serve::ParseServer server(env.fused.get(), options);
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(submitters));
    for (int t = 0; t < submitters; ++t) {
      threads.emplace_back([&server, &env] {
        std::vector<std::future<pipeline::ParseResponse>> futures;
        futures.reserve(env.documents.size());
        for (const doc::Document& document : env.documents) {
          pipeline::ParseRequest request;
          request.document = document;
          futures.push_back(server.Submit(std::move(request)));
        }
        for (auto& future : futures) benchmark::DoNotOptimize(future.get());
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  server.Shutdown();
  state.SetItemsProcessed(state.iterations() * submitters *
                          static_cast<int64_t>(env.documents.size()));
  state.counters["submitters"] = static_cast<double>(submitters);
  state.counters["p99_us"] = static_cast<double>(e2e->ApproxPercentile(0.99));
  metrics::MetricsRegistry::Global().SetEnabled(false);
  ThreadPool::Global().SetNumThreads(1);
}
// UseRealTime: the main thread only joins submitters, so CPU time would
// wildly overstate throughput — rates must come from wall time.
BENCHMARK(BM_ServerThroughput)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- static inference plan: trace-once replay vs the dynamic op graph ---

// Table-scale emissions (the Env config): the plan's win is largest here,
// where per-op dispatch (node construction, shape inference, output
// allocation) dominates the small kernels.
void BM_EmissionsDynamic(benchmark::State& state) {
  Env& env = GetEnv();
  ThreadPool::Global().SetNumThreads(1);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.classifier->Emissions(env.encoded, nullptr));
  }
}
BENCHMARK(BM_EmissionsDynamic)->Unit(benchmark::kMicrosecond);

void BM_EmissionsPlanReplay(benchmark::State& state) {
  Env& env = GetEnv();
  ThreadPool::Global().SetNumThreads(1);
  core::InferencePlanner planner(env.classifier.get());
  std::vector<float> emissions;
  if (!planner.EmissionsViaPlan(env.encoded, &emissions)) {
    state.SkipWithError("plan build failed");
    return;
  }
  for (auto _ : state) {
    planner.EmissionsViaPlan(env.encoded, &emissions);
    benchmark::DoNotOptimize(emissions.data());
  }
}
BENCHMARK(BM_EmissionsPlanReplay)->Unit(benchmark::kMicrosecond);

// Paper-dimension document stage: 350 sentence positions through the
// document Transformer at D=768/H=12 (Section V scale; ffn and the BiLSTM
// width are kept moderate so an iteration stays affordable). Sentences are
// short so the run is dominated by the statically-planned document stage.
struct PlanPaperEnv {
  PlanPaperEnv() {
    Env& env = GetEnv();
    cfg = env.model_cfg;
    cfg.hidden = kPaperD;
    cfg.num_heads = kPaperH;
    cfg.ffn = 1024;
    cfg.sentence_layers = 1;
    cfg.document_layers = 1;
    cfg.max_sentences = kPaperT;
    cfg.max_tokens_per_sentence = 4;
    cfg.lstm_hidden = 64;
    Rng rng(41);
    classifier = std::make_unique<core::BlockClassifier>(cfg, &rng);
    classifier->SetTraining(false);
    const core::EncodedDocument base =
        core::EncodeForModel(env.corpus.test[0].document, *env.tokenizer, cfg);
    encoded.sentences.reserve(kPaperT);
    for (int i = 0; i < kPaperT; ++i) {
      encoded.sentences.push_back(
          base.sentences[i % base.sentences.size()]);
    }
  }
  core::ResuFormerConfig cfg;
  std::unique_ptr<core::BlockClassifier> classifier;
  core::EncodedDocument encoded;
};

PlanPaperEnv& GetPlanPaperEnv() {
  static PlanPaperEnv* env = new PlanPaperEnv();
  return *env;
}

void BM_EmissionsDynamicPaperDims(benchmark::State& state) {
  PlanPaperEnv& env = GetPlanPaperEnv();
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.classifier->Emissions(env.encoded, nullptr));
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_EmissionsDynamicPaperDims)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_EmissionsPlanReplayPaperDims(benchmark::State& state) {
  PlanPaperEnv& env = GetPlanPaperEnv();
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  core::InferencePlanner planner(env.classifier.get());
  std::vector<float> emissions;
  if (!planner.EmissionsViaPlan(env.encoded, &emissions)) {
    state.SkipWithError("plan build failed");
    return;
  }
  for (auto _ : state) {
    planner.EmissionsViaPlan(env.encoded, &emissions);
    benchmark::DoNotOptimize(emissions.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_EmissionsPlanReplayPaperDims)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- int8 quantized inference (PR 7) --------------------------------------

/// Same model/weights as PlanPaperEnv (same config + seed) but with
/// runtime.use_int8, so the planner rewrites constant-weight GEMMs to the
/// quantized kernels. Kept separate so the fp32 env's plans stay fp32.
struct Int8PaperEnv {
  Int8PaperEnv() {
    PlanPaperEnv& fp32 = GetPlanPaperEnv();
    cfg = fp32.cfg;
    cfg.runtime.use_int8 = true;
    Rng rng(41);
    classifier = std::make_unique<core::BlockClassifier>(cfg, &rng);
    classifier->SetTraining(false);
  }
  core::ResuFormerConfig cfg;
  std::unique_ptr<core::BlockClassifier> classifier;
};

Int8PaperEnv& GetInt8PaperEnv() {
  static Int8PaperEnv* env = new Int8PaperEnv();
  return *env;
}

void BM_EmissionsPlanReplayInt8PaperDims(benchmark::State& state) {
  Int8PaperEnv& env = GetInt8PaperEnv();
  const core::EncodedDocument& encoded = GetPlanPaperEnv().encoded;
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  core::InferencePlanner planner(env.classifier.get());
  std::vector<float> emissions;
  if (!planner.EmissionsViaPlan(encoded, &emissions)) {
    state.SkipWithError("int8 plan build failed");
    return;
  }
  for (auto _ : state) {
    planner.EmissionsViaPlan(encoded, &emissions);
    benchmark::DoNotOptimize(emissions.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_EmissionsPlanReplayInt8PaperDims)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Kernel-level fp32 vs int8 at the paper's document-attention GEMM shape:
// [350, 768] x [768, 768] in NT form. The fp32 row zero-fills C first
// (the kernels accumulate); the int8 row runs the full LinearI8Forward
// production path — dynamic activation quantization, int8 GEMM, dequant —
// so the reported speedup includes the quantization overhead.
void BM_GemmFp32(benchmark::State& state) {
  const int m = kPaperT, k = kPaperD, n = kPaperD;
  Rng rng(51);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(n) * k);  // NT layout [n, k]
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (float& v : a) v = static_cast<float>(rng.Normal());
  for (float& v : b) v = 0.05f * static_cast<float>(rng.Normal());
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0f);
    ThreadPool::Global().ParallelFor(
        m, [&](int, int64_t r0, int64_t r1) {
          kernels::GemmNT(a.data(), k, b.data(), k, c.data(), n, n, k, r0,
                          r1);
        });
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_GemmFp32)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GemmI8(benchmark::State& state) {
  const int m = kPaperT, k = kPaperD, n = kPaperD;
  Rng rng(51);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> w(static_cast<size_t>(k) * n);
  for (float& v : a) v = static_cast<float>(rng.Normal());
  for (float& v : w) v = 0.05f * static_cast<float>(rng.Normal());
  const quant::QuantizedTensor qw =
      quant::QuantizeTransposed(w.data(), k, n);
  std::vector<float> scratch(quant::LinearI8ScratchFloats(m, k, n));
  std::vector<float> c(static_cast<size_t>(m) * n);
  ThreadPool::Global().SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    quant::LinearI8Forward(a.data(), qw, c.data(), m, k, n, scratch.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  ThreadPool::Global().SetNumThreads(1);
}
BENCHMARK(BM_GemmI8)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Cold start: load the paper-dims block classifier's parameters from each
// checkpoint format. RFP2 stream-parses every payload into private heap
// copies; RFP3 mmaps the file and points the tensors at the shared pages,
// so its "load" is an index walk plus page-table setup.
struct ColdStartEnv {
  ColdStartEnv() {
    PlanPaperEnv& paper = GetPlanPaperEnv();
    const char* tmp = std::getenv("TMPDIR");
    const std::string dir = tmp != nullptr ? tmp : "/tmp";
    rfp2_path = dir + "/rf_bench_cold_v2.bin";
    rfp3_path = dir + "/rf_bench_cold_v3.bin";
    ok = nn::SaveParameters(*paper.classifier, rfp2_path,
                        nn::CheckpointFormat::kRfp2)
             .ok() &&
         nn::SaveParameters(*paper.classifier, rfp3_path,
                        nn::CheckpointFormat::kRfp3)
             .ok();
    Rng rng(41);
    target = std::make_unique<core::BlockClassifier>(paper.cfg, &rng);
  }
  std::string rfp2_path;
  std::string rfp3_path;
  std::unique_ptr<core::BlockClassifier> target;
  bool ok = false;
};

ColdStartEnv& GetColdStartEnv() {
  static ColdStartEnv* env = new ColdStartEnv();
  return *env;
}

void BM_ColdStartRfp2(benchmark::State& state) {
  ColdStartEnv& env = GetColdStartEnv();
  if (!env.ok) {
    state.SkipWithError("checkpoint save failed");
    return;
  }
  for (auto _ : state) {
    const Status st = nn::LoadParameters(env.target.get(), env.rfp2_path);
    if (!st.ok()) {
      state.SkipWithError(st.message().c_str());
      return;
    }
  }
}
BENCHMARK(BM_ColdStartRfp2)->Unit(benchmark::kMillisecond);

void BM_ColdStartRfp3Mmap(benchmark::State& state) {
  ColdStartEnv& env = GetColdStartEnv();
  if (!env.ok) {
    state.SkipWithError("checkpoint save failed");
    return;
  }
  for (auto _ : state) {
    const Status st = nn::LoadParameters(env.target.get(), env.rfp3_path);
    if (!st.ok()) {
      state.SkipWithError(st.message().c_str());
      return;
    }
  }
}
BENCHMARK(BM_ColdStartRfp3Mmap)->Unit(benchmark::kMillisecond);

// --- observability overhead: the costs the instrumentation layer claims ---

void BM_TraceSpanDisabled(benchmark::State& state) {
  // The price every instrumented function pays when tracing is off: one
  // relaxed atomic load and a branch, no clock read.
  trace::TraceRecorder::Global().SetEnabled(false);
  for (auto _ : state) {
    TRACE_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled)->Unit(benchmark::kNanosecond);

void BM_TraceSpanEnabled(benchmark::State& state) {
  trace::TraceRecorder::Global().SetEnabled(true);
  for (auto _ : state) {
    TRACE_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
  trace::TraceRecorder::Global().SetEnabled(false);
  trace::TraceRecorder::Global().Reset();
}
BENCHMARK(BM_TraceSpanEnabled)->Unit(benchmark::kNanosecond);

void BM_CounterIncrement(benchmark::State& state) {
  metrics::Counter* counter =
      metrics::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterIncrement)->Unit(benchmark::kNanosecond);

void BM_HistogramRecord(benchmark::State& state) {
  metrics::Histogram* hist =
      metrics::MetricsRegistry::Global().GetHistogram("bench.histogram");
  int64_t v = 0;
  for (auto _ : state) {
    hist->Record(v++ & 0xfff);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramRecord)->Unit(benchmark::kNanosecond);

// The always-live record behind the serve plane's windowed p50/p99: a plain
// Histogram::Record plus one relaxed epoch-sequence check. Compare against
// BM_HistogramRecord to see the rolling overhead; the synthetic clock steps
// one microsecond per record, so epoch rotation stays on its real cadence.
void BM_RollingHistogramRecord(benchmark::State& state) {
  metrics::RollingHistogram rolling(10, 1'000'000'000);  // 10 x 1s epochs
  int64_t now_ns = 0;
  int64_t v = 0;
  for (auto _ : state) {
    rolling.Record(v++ & 0xfff, now_ns);
    now_ns += 1'000;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RollingHistogramRecord)->Unit(benchmark::kNanosecond);

void BM_TokenLevelPredict(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.token_model->LabelSentences(env.corpus.test[0].document));
  }
}
BENCHMARK(BM_TokenLevelPredict)->Unit(benchmark::kMillisecond);

void BM_EncodeForModel(benchmark::State& state) {
  Env& env = GetEnv();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeForModel(
        env.corpus.test[0].document, *env.tokenizer, env.model_cfg));
  }
}
BENCHMARK(BM_EncodeForModel)->Unit(benchmark::kMicrosecond);

void BM_CrfViterbiDecode(benchmark::State& state) {
  Rng rng(7);
  crf::LinearCrf crf(doc::kNumIobLabels, &rng);
  const int t_len = static_cast<int>(state.range(0));
  Tensor emissions = Tensor::Randn({t_len, doc::kNumIobLabels}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crf.Decode(emissions));
  }
}
BENCHMARK(BM_CrfViterbiDecode)->Arg(64)->Arg(350)->Unit(benchmark::kMicrosecond);

void BM_CrfTrainingStep(benchmark::State& state) {
  Rng rng(8);
  crf::LinearCrf crf(doc::kNumIobLabels, &rng);
  Tensor emissions =
      Tensor::Randn({64, doc::kNumIobLabels}, &rng, 1.0f, true);
  std::vector<int> labels(64);
  for (int i = 0; i < 64; ++i) labels[i] = rng.UniformInt(doc::kNumIobLabels);
  for (auto _ : state) {
    emissions.ZeroGrad();
    Tensor loss = crf.NegLogLikelihood(emissions, labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_CrfTrainingStep)->Unit(benchmark::kMicrosecond);

void BM_WordPieceEncode(benchmark::State& state) {
  Env& env = GetEnv();
  const std::string text =
      "Senior Software Engineer at BrightHorizon Technologies Co. LTD";
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.tokenizer->Encode(text));
  }
}
BENCHMARK(BM_WordPieceEncode)->Unit(benchmark::kMicrosecond);

void BM_SentenceAssembler(benchmark::State& state) {
  Env& env = GetEnv();
  std::vector<doc::Token> flat;
  for (const auto& s : env.corpus.test[0].document.sentences) {
    flat.insert(flat.end(), s.tokens.begin(), s.tokens.end());
  }
  doc::SentenceAssembler assembler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(assembler.Assemble(flat));
  }
}
BENCHMARK(BM_SentenceAssembler)->Unit(benchmark::kMicrosecond);

void BM_GenerateResume(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resumegen::GenerateResume(&rng));
  }
}
BENCHMARK(BM_GenerateResume)->Unit(benchmark::kMicrosecond);

// Full-tree rf_lint scan (lex -> scope facts -> call graph -> rule families
// over src/tests/bench/examples), the same work the tier-1 `rf_lint` ctest
// does. Budget: well under 5 s, so the lint gate stays cheap enough to run
// on every build.
void BM_RfLintFullScan(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path root = RESUFORMER_REPO_ROOT;
  int64_t violations = 0;
  for (auto _ : state) {
    rflint::Linter linter;
    for (const char* sub : {"src", "tests", "bench", "examples"}) {
      const fs::path dir = root / sub;
      if (!fs::exists(dir)) continue;
      std::vector<fs::path> paths;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() &&
            (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp")) {
          paths.push_back(entry.path());
        }
      }
      std::sort(paths.begin(), paths.end());
      for (const fs::path& p : paths) {
        linter.AddFile(p, fs::relative(p, root).generic_string());
      }
    }
    linter.Run();
    violations += static_cast<int64_t>(linter.violations().size());
    benchmark::DoNotOptimize(violations);
  }
}
BENCHMARK(BM_RfLintFullScan)->Unit(benchmark::kMillisecond);

// Machine-readable sidecar: one JSON record per benchmark run with the
// fields CI trend-lines need (op, size, threads, ns/op). Written next to
// the working directory as BENCH_MICRO.json (override with the
// RESUFORMER_BENCH_JSON env var).
class MicroJsonReporter : public benchmark::BenchmarkReporter {
 public:
  explicit MicroJsonReporter(std::string path) : path_(std::move(path)) {}

  bool ReportContext(const Context& context) override {
    cpus_ = context.cpu_info.num_cpus;
    return true;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      // "BM_Foo/4" -> op "BM_Foo", size "4"; unparameterized stay whole.
      const size_t slash = name.find('/');
      const std::string op = name.substr(0, slash);
      const std::string size =
          slash == std::string::npos ? "" : name.substr(slash + 1);
      const double ns_per_op =
          run.iterations == 0
              ? 0.0
              : run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      double threads = 1.0;
      auto it = run.counters.find("threads");
      if (it != run.counters.end()) threads = it->second;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "  {\"op\": \"%s\", \"size\": \"%s\", \"threads\": %d, "
                    "\"ns_per_op\": %.1f, \"iterations\": %lld}",
                    op.c_str(), size.c_str(), static_cast<int>(threads),
                    ns_per_op, static_cast<long long>(run.iterations));
      records_.push_back(buf);
    }
  }

  void Finalize() override {
    std::ofstream out(path_);
    if (!out) return;
    out << "{\n\"num_cpus\": " << cpus_ << ",\n\"benchmarks\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    // Counters accumulated across every run above (GEMM calls/FLOPs, pool
    // dispatches, pipeline tallies) — the structural side of a bench run,
    // alongside the timings.
    out << "],\n\"metrics\": "
        << resuformer::metrics::MetricsRegistry::Global().Snapshot().ToJson()
        << "\n}\n";
  }

 private:
  std::string path_;
  int cpus_ = 0;
  std::vector<std::string> records_;
};

}  // namespace
}  // namespace resuformer

int main(int argc, char** argv) {
  // The library refuses a custom file reporter unless --benchmark_out is
  // set; our reporter writes its own path, so point the built-in stream at
  // /dev/null when the caller didn't pass the flag.
  std::vector<char*> args(argv, argv + argc);
  static char null_out[] = "--benchmark_out=/dev/null";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) args.push_back(null_out);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  const char* json_path = std::getenv("RESUFORMER_BENCH_JSON");
  resuformer::MicroJsonReporter json_reporter(
      json_path != nullptr ? json_path : "BENCH_MICRO.json");
  benchmark::ConsoleReporter console_reporter;
  benchmark::RunSpecifiedBenchmarks(&console_reporter, &json_reporter);
  benchmark::Shutdown();
  return 0;
}
