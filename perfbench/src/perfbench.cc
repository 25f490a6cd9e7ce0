// rf_perfbench: the measurement binary behind perfbench/run.py.
//
//   rf_perfbench calibrate
//       spin loops on 1 and on nproc threads; prints the effective
//       parallelism (exposes steal and CPU quota) as JSON.
//   rf_perfbench prepare-paper --out DIR
//       builds the untrained paper-width model (D=768, H=12, FFN 3072, one
//       layer per encoder) through TrainFromCorpus with zero epochs, saves it.
//   rf_perfbench setup --kind table|paper --model DIR --seed N [--doc K]
//       loads the model, parses document K (default 0) of the seed's
//       stream, prints "ready", exits.
//   rf_perfbench batch --kind table|paper --model DIR --seed N --docs D
//                      --seconds S --trace 0|1 [--text 0|1] [--spans FILE]
//                      [--pause 0|1]
//       the closed-loop batch measurement (trace 0) or the per-layer traced
//       run (trace 1). --text 1 feeds documents rebuilt from their wire text,
//       exactly what the serve daemon parses. --pause 1 waits for a line on
//       stdin after each measured round. Prints one JSON object.
//   rf_perfbench serve-inputs --model DIR --seed N --docs D --out DIR
//       writes the serve workload's request texts and the direct Parse()
//       reply each must match byte for byte.
//   rf_perfbench quality --model DIR --seed N --text 0|1
//       table-model block accuracy and entity F1 against gold on the
//       seed's quality set (--text 1: documents rebuilt from wire text).

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/inference_plan.h"
#include "doc/block_tags.h"
#include "pipeline/pipeline.h"
#include "resumegen/corpus.h"
#include "score.h"
#include "serve/server.h"
#include "serve/text_document.h"
#include "span_trace.h"
#include "tensor/tensor.h"

namespace perfbench {
namespace {

using namespace resuformer;  // NOLINT: benchmark-local convenience
using pipeline::ParseRequest;
using pipeline::ParseResponse;
using pipeline::ResuFormerPipeline;
using pipeline::StructuredResume;

// ---------------------------------------------------------------------------
// Flags and small utilities.

struct Flags {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& k, const std::string& dflt = "") const {
    auto it = values.find(k);
    return it == values.end() ? dflt : it->second;
  }
  long long Int(const std::string& k, long long dflt) const {
    auto it = values.find(k);
    return it == values.end() ? dflt : std::atoll(it->second.c_str());
  }
  double Double(const std::string& k, double dflt) const {
    auto it = values.find(k);
    return it == values.end() ? dflt : std::atof(it->second.c_str());
  }
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "rf_perfbench: %s\n", msg.c_str());
  std::exit(1);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The q-quantile of samples taken in windows (rounds of a run): the median
/// over windows of each window's quantile when every window holds at least
/// ten samples beyond it, so a host slowdown shorter than the run does not
/// set it; otherwise the quantile of all samples pooled.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  bool each = !windows.empty();
  std::vector<double> pooled, per_window;
  for (const std::vector<double>& w : windows) {
    each = each && static_cast<double>(w.size()) * (1.0 - q) >= 10.0;
    pooled.insert(pooled.end(), w.begin(), w.end());
    per_window.push_back(Quantile(w, q));
  }
  return each ? Quantile(per_window, 0.5) : Quantile(pooled, q);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Ordered JSON object writer (numbers printed with all their digits).
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + buf;
  }
  std::string Done() const { return (body_.empty() ? "{" : body_) + "}"; }

 private:
  std::string body_;
};

/// Value of a "Key:  N kB" line of /proc/<self>/status, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1) / 1024.0;
    }
  }
  return 0.0;
}

int CountLines(const char* path) {
  std::ifstream in(path);
  std::string line;
  int n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int n = 0;
  while (dirent* e = readdir(dir)) n += e->d_name[0] != '.';
  closedir(dir);
  return n;
}

int64_t CounterValue(const metrics::MetricsSnapshot& snap,
                     const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Counter deltas between two registry snapshots.
struct CounterDelta {
  metrics::MetricsSnapshot before, after;
  double operator()(const std::string& name) const {
    return static_cast<double>(CounterValue(after, name) -
                               CounterValue(before, name));
  }
};

metrics::MetricsSnapshot Snap() {
  return metrics::MetricsRegistry::Global().Snapshot();
}

// ---------------------------------------------------------------------------
// Models and inputs.

constexpr uint64_t kDocSeedBase = 0x9e57ull << 32;  // disjoint from training

// Table quality is scored on this many documents of the seed's stream (the
// timed corpus first), enough that block_acc and entity_f1 vary about 1%
// from seed to seed.
constexpr int kTableQualityDocs = 512;
// The paper model's int8-vs-fp32 agreement sample, in documents.
constexpr int kInt8AgreementDocs = 4;

pipeline::PipelineOptions TableOptions() {
  // Architecture fields equal to `resuformer_cli`'s DemoPipelineOptions
  // (the manifest check in Load verifies them); runtime knobs default.
  return pipeline::PipelineOptions{};
}

pipeline::PipelineOptions PaperOptions(bool use_int8) {
  pipeline::PipelineOptions o;
  o.model.hidden = 768;
  o.model.num_heads = 12;
  o.model.ffn = 3072;
  o.model.sentence_layers = 1;
  o.model.document_layers = 1;
  o.ner.hidden = 768;
  o.ner.num_heads = 12;
  o.ner.ffn = 3072;
  o.ner.layers = 1;
  o.model.runtime.use_int8 = use_int8;
  o.pretrain_epochs = 0;
  o.finetune.epochs = 0;
  o.selftrain.teacher_epochs = 0;
  o.selftrain.iterations = 0;
  o.ner_data.train_sequences = 4;
  o.ner_data.val_sequences = 2;
  o.ner_data.test_sequences = 2;
  o.seed = 11;
  return o;
}

std::unique_ptr<ResuFormerPipeline> LoadModel(const std::string& kind,
                                              const std::string& dir) {
  if (kind != "table" && kind != "paper") Die("--kind must be table|paper");
  auto loaded = ResuFormerPipeline::Load(
      dir, kind == "table" ? TableOptions() : PaperOptions(true));
  if (!loaded.ok()) Die("cannot load " + dir + ": " + loaded.status().ToString());
  return std::move(loaded).ValueOrDie();
}

struct Input {
  resumegen::GeneratedResume gen;  // gold labels
  doc::Document doc;               // what is parsed
};

/// Document i of the workload's input stream for `seed`. With `via_text`
/// the parsed document is rebuilt from its wire text, as the daemon does.
Input MakeInput(uint64_t seed, int i, bool via_text) {
  Rng rng(kDocSeedBase + seed * 1000003ull + static_cast<uint64_t>(i));
  Input in;
  in.gen = resumegen::GenerateResume(&rng);
  in.doc = via_text ? serve::DocumentFromText(serve::DocumentToText(in.gen.document))
                    : in.gen.document;
  return in;
}

std::vector<ParseRequest> Requests(const std::vector<Input>& inputs,
                                   bool want_stats) {
  std::vector<ParseRequest> out(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    out[i].document = inputs[i].doc;
    out[i].want_stats = want_stats;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The traced composition: the same steps ParseDocument takes, called layer
// by layer through each module's public interface, each inside a span.

std::vector<int> DynamicLabels(const core::BlockClassifier& bc,
                               const core::EncodedDocument& enc, int64_t doc) {
  Tensor h_star, ctx, em;
  {
    ScopedSpan s("core.sentence_encoder", doc);
    h_star = bc.encoder()->EncodeSentences(enc, nullptr);
  }
  {
    ScopedSpan s("core.document_encoder", doc);
    ctx = bc.encoder()->EncodeDocument(h_star, enc, nullptr);
  }
  {
    ScopedSpan s("core.head", doc);
    em = bc.projection()->Forward(bc.bilstm()->Forward(ctx));
  }
  ScopedSpan s("crf.decode", doc);
  return bc.crf()->Decode(em);
}

struct ComposeStats {
  int ner_calls = 0;
  int ner_words = 0;
};

/// Composed parse. `planner` null: dynamic block classification (the
/// default library path); otherwise plan replay (the use_int8 path).
StructuredResume ComposedParse(const ResuFormerPipeline& p,
                               core::InferencePlanner* planner,
                               const doc::Document& document, int64_t doc,
                               ComposeStats* stats) {
  ScopedSpan root("pipeline.parse", doc);
  NoGradGuard no_grad;
  StructuredResume out;
  core::EncodedDocument enc;
  {
    ScopedSpan s("core.encode", doc);
    enc = core::EncodeForModel(document, p.tokenizer(),
                               p.block_classifier().config());
  }
  if (enc.sentences.empty()) return out;
  std::vector<int> labels;
  if (planner != nullptr) {
    ScopedSpan s("core.plan_predict", doc);
    labels = planner->Predict(enc);
  } else {
    labels = DynamicLabels(p.block_classifier(), enc, doc);
  }
  std::vector<doc::Block> blocks;
  {
    ScopedSpan s("pipeline.segment", doc);
    blocks = doc::Document::BlocksFromLabels(labels);
  }
  for (const doc::Block& block : blocks) {
    pipeline::StructuredBlock sb;
    sb.tag = block.tag;
    std::vector<std::string> words;
    for (int s = block.first_sentence;
         s <= block.last_sentence && s < document.NumSentences(); ++s) {
      sb.lines.push_back(document.sentences[s].Text());
      for (const doc::Token& t : document.sentences[s].tokens) {
        words.push_back(t.word);
      }
    }
    const bool entity_bearing = block.tag == doc::BlockTag::kPInfo ||
                                block.tag == doc::BlockTag::kEduExp ||
                                block.tag == doc::BlockTag::kWorkExp ||
                                block.tag == doc::BlockTag::kProjExp;
    if (entity_bearing && !words.empty()) {
      std::vector<int> el;
      {
        ScopedSpan s("selftrain.ner", doc);
        el = p.ner_model().PredictWords(words, p.tokenizer());
      }
      const int window = p.ner_model().config().max_tokens;
      stats->ner_calls += (static_cast<int>(words.size()) + window - 1) / window;
      stats->ner_words += static_cast<int>(words.size());
      size_t i = 0;
      while (i < el.size()) {
        doc::EntityTag tag;
        bool begin;
        if (doc::ParseEntityIobLabel(el[i], &tag, &begin)) {
          std::string text = words[i];
          size_t j = i + 1;
          doc::EntityTag tag2;
          bool begin2;
          while (j < el.size() && j < words.size() &&
                 doc::ParseEntityIobLabel(el[j], &tag2, &begin2) && !begin2 &&
                 tag2 == tag) {
            text += " " + words[j];
            ++j;
          }
          sb.entities.push_back(pipeline::StructuredEntity{tag, text});
          i = j;
        } else {
          ++i;
        }
      }
    }
    out.blocks.push_back(std::move(sb));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Subcommands.

int CmdCalibrate() {
  // A dependent multiply-add chain: pure ALU work, no memory traffic, so a
  // loss of throughput on n threads is lost CPU (steal, quota), not
  // contention.
  auto spin = [](double seconds) {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t x = 88172645463325252ull, iters = 0;
    while (NowNs() < end) {
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
      iters += 4096;
    }
    return static_cast<double>(iters + (x & 1));
  };
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> singles, totals;
  for (int rep = 0; rep < 5; ++rep) {
    singles.push_back(spin(0.1));
    std::vector<double> per(n);
    std::vector<std::thread> threads;
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&per, &spin, t] { per[t] = spin(0.1); });
    }
    for (std::thread& t : threads) t.join();
    double total = 0;
    for (double v : per) total += v;
    totals.push_back(total);
  }
  JsonOut j;
  j.Num("nproc", n);
  j.Num("effective_parallelism",
        Quantile(totals, 0.5) / Quantile(singles, 0.5));
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

int CmdPreparePaper(const Flags& f) {
  const std::string out = f.Get("--out");
  if (out.empty()) Die("prepare-paper needs --out DIR");
  resumegen::CorpusConfig cc;
  cc.pretrain_docs = 40;
  cc.train_docs = 2;
  cc.val_docs = 2;
  cc.test_docs = 0;
  cc.seed = 7;
  auto p = ResuFormerPipeline::TrainFromCorpus(resumegen::GenerateCorpus(cc),
                                               PaperOptions(false));
  const Status saved = p->Save(out);
  if (!saved.ok()) Die(saved.ToString());
  return 0;
}

/// Loads the model and parses document --doc (default 0) of the workload's
/// stream. Returns the pipeline; `first_parse_ms` gets the in-process time
/// of that parse.
std::unique_ptr<ResuFormerPipeline> SetUp(const Flags& f, bool via_text,
                                          double* first_parse_ms) {
  auto p = LoadModel(f.Get("--kind"), f.Get("--model"));
  ParseRequest req;
  req.document = MakeInput(static_cast<uint64_t>(f.Int("--seed", 1)),
                           static_cast<int>(f.Int("--doc", 0)), via_text)
                     .doc;
  const int64_t t0 = NowNs();
  const ParseResponse r = p->Parse(req);
  *first_parse_ms = Seconds(NowNs() - t0) * 1e3;
  if (!r.ok()) Die("first parse failed: " + r.status.ToString());
  std::printf("ready\n");
  std::fflush(stdout);
  return p;
}

int CmdSetup(const Flags& f) {
  double first_parse_ms = 0;
  SetUp(f, /*via_text=*/false, &first_parse_ms);
  return 0;
}

int CmdServeInputs(const Flags& f) {
  const std::string out = f.Get("--out");
  const uint64_t seed = static_cast<uint64_t>(f.Int("--seed", 1));
  const int n = static_cast<int>(f.Int("--docs", 32));
  auto p = LoadModel("table", f.Get("--model"));
  std::vector<Input> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(MakeInput(seed, i, true));
  const std::vector<ParseResponse> rs = p->Parse(Requests(inputs, false));
  for (int i = 0; i < n; ++i) {
    if (!rs[i].ok()) Die("direct parse failed: " + rs[i].status.ToString());
    std::ofstream(out + "/text_" + std::to_string(i) + ".txt")
        << serve::DocumentToText(inputs[i].gen.document);
    std::ofstream(out + "/expected_" + std::to_string(i) + ".json")
        << ResuFormerPipeline::ToPrettyString(rs[i].resume);
  }
  return 0;
}

/// Table-model quality on the first kTableQualityDocs documents of the
/// seed's stream, in a process of its own so the quality set does not count
/// toward a measured process's peak memory.
int CmdQuality(const Flags& f) {
  const uint64_t seed = static_cast<uint64_t>(f.Int("--seed", 1));
  const bool via_text = f.Int("--text", 0) != 0;
  auto p = LoadModel("table", f.Get("--model"));
  std::vector<Input> inputs;
  for (int i = 0; i < kTableQualityDocs; ++i) {
    inputs.push_back(MakeInput(seed, i, via_text));
  }
  const std::vector<ParseResponse> rs = p->Parse(Requests(inputs, false));
  Agreement quality;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!rs[i].ok()) Die("quality parse failed: " + rs[i].status.ToString());
    quality.AddTags(SentenceTags(inputs[i].doc, rs[i].resume),
                    TagsFromLabels(inputs[i].gen.document.sentence_labels));
    quality.AddEntities(ParsedEntities(rs[i].resume),
                        GoldEntities(inputs[i].gen));
  }
  JsonOut j;
  j.Num("block_acc", quality.TagAccuracy());
  j.Num("entity_f1", quality.EntityF1());
  j.Num("quality_docs", kTableQualityDocs);
  j.Num("quality_sentences", static_cast<double>(quality.tags_total));
  j.Num("quality_entities", static_cast<double>(quality.entities_reference));
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

/// Per-document results of one batch pass.
struct Pass {
  double seconds = 0;
  std::vector<double> parse_ms;  // ParseStats wall time per document
  int failed = 0;
  int mismatched = 0;  // output differs from the first pass
};

Pass RunBatch(const ResuFormerPipeline& p,
              const std::vector<ParseRequest>& requests,
              const std::vector<std::string>& expected) {
  Pass pass;
  const int64_t t0 = NowNs();
  const std::vector<ParseResponse> rs = p.Parse(requests);
  pass.seconds = Seconds(NowNs() - t0);
  for (size_t i = 0; i < rs.size(); ++i) {
    if (!rs[i].ok()) {
      ++pass.failed;
      continue;
    }
    pass.parse_ms.push_back(rs[i].stats.wall_time_us / 1e3);
    if (ResuFormerPipeline::ToPrettyString(rs[i].resume) != expected[i]) {
      ++pass.mismatched;
    }
  }
  return pass;
}

/// The paper model's int8 parses `rs` against its fp32 dynamic path, on
/// the first kInt8AgreementDocs documents: the int8 agreement gate.
Agreement Int8Agreement(const ResuFormerPipeline& p,
                        const std::vector<Input>& inputs,
                        const std::vector<ParseResponse>& rs) {
  Agreement a;
  const int n = std::min<int>(kInt8AgreementDocs, static_cast<int>(inputs.size()));
  std::vector<StructuredResume> ref(n);
  std::vector<ComposeStats> unused(n);
  ThreadPool::Global().ParallelFor(n, [&](int, int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ref[i] = ComposedParse(p, nullptr, inputs[i].doc, i, &unused[i]);
    }
  });
  for (int i = 0; i < n; ++i) {
    a.AddTags(SentenceTags(inputs[i].doc, rs[i].resume),
              SentenceTags(inputs[i].doc, ref[i]));
    a.AddEntities(ParsedEntities(rs[i].resume), ParsedEntities(ref[i]));
  }
  return a;
}

/// Finds `"key": <int>` in a StatsJson reply.
double JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  return at == std::string::npos
             ? 0.0
             : std::atof(json.c_str() + at + needle.size());
}

/// In-process serve segment of the traced batch run: a ParseServer with
/// default options, driven open-loop (Poisson arrivals at `rate`) by
/// nproc lockstep clients, as the daemon is driven by run.py's loadgen.
void ServeSegment(const ResuFormerPipeline& p, const std::vector<Input>& inputs,
                  double rate, double seconds, uint64_t seed, JsonOut* j) {
  serve::ParseServer server(&p, serve::ServerOptions{});
  const int clients = static_cast<int>(std::thread::hardware_concurrency());
  Rng rng(seed * 7919 + 3);
  std::vector<int64_t> due;
  double t = 0;
  while (t < seconds) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  const int64_t base = NowNs() + 20'000'000;
  for (int64_t& d : due) d += base;
  std::atomic<size_t> next{0};
  std::atomic<int> inflight{0}, inflight_max{0}, rejected{0};
  std::vector<std::vector<double>> lag(clients), rtt(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= due.size()) return;
        const int64_t free_at = NowNs();
        if (free_at < due[i]) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due[i] - free_at));
        }
        const int64_t sent = NowNs();
        // Generator lateness only: time lost after the later of the due
        // time and the moment this connection became free.
        lag[c].push_back(Seconds(sent - std::max(due[i], free_at)) * 1e3);
        const int now_inflight = inflight.fetch_add(1) + 1;
        int seen = inflight_max.load();
        while (now_inflight > seen &&
               !inflight_max.compare_exchange_weak(seen, now_inflight)) {
        }
        ParseRequest req;
        req.document = inputs[i % inputs.size()].doc;
        const ParseResponse r = server.Submit(std::move(req)).get();
        inflight.fetch_sub(1);
        if (!r.ok()) rejected.fetch_add(1);
        rtt[c].push_back(Seconds(NowNs() - sent) * 1e3);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::string stats = server.StatsJson();
  server.Shutdown();
  std::vector<double> all_lag, all_rtt;
  for (int c = 0; c < clients; ++c) {
    all_lag.insert(all_lag.end(), lag[c].begin(), lag[c].end());
    all_rtt.insert(all_rtt.end(), rtt[c].begin(), rtt[c].end());
  }
  const double batches = JsonInt(stats, "batches");
  j->Num("loadgen.send_lag_p99_ms", Quantile(all_lag, 0.99));
  j->Num("loadgen.inflight_max", inflight_max.load());
  j->Num("serve.queue_wait_p50_ms", JsonInt(stats, "window_queue_wait_p50_us") / 1e3);
  j->Num("serve.queue_wait_p99_ms", JsonInt(stats, "window_queue_wait_p99_us") / 1e3);
  j->Num("serve.batch_size_mean",
         batches > 0 ? JsonInt(stats, "requests") / batches : 0.0);
  j->Num("serve.client_rtt_p50_ms", Quantile(all_rtt, 0.5));
  j->Num("serve.rejected", rejected.load());
}

/// Everything a batch run measures against: the loaded model, the inputs,
/// and the first pass's outputs every later pass must reproduce.
struct Workload {
  std::unique_ptr<ResuFormerPipeline> model;
  bool paper = false;
  std::vector<Input> inputs;
  std::vector<ParseRequest> requests;
  std::vector<ParseResponse> first_pass;
  std::vector<std::string> expected;
  double first_parse_ms = 0;
  metrics::MetricsSnapshot boot;        // before set-up
  metrics::MetricsSnapshot after_warm;  // after the first pass
  long long attempted = 0;
  long long failed = 0;
  long long mismatched = 0;

  const ResuFormerPipeline& p() const { return *model; }
  int docs() const { return static_cast<int>(inputs.size()); }
  void Add(const Pass& pass) {
    attempted += static_cast<long long>(pass.parse_ms.size() + pass.failed);
    failed += pass.failed;
    mismatched += pass.mismatched;
  }
};

/// Runs Parse(vector) over the corpus until `seconds` have passed (at least
/// once); returns the docs/s of each round and appends per-document times.
std::vector<double> Rounds(Workload* w, double seconds,
                           std::vector<double>* parse_ms) {
  std::vector<double> dps;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    const Pass pass = RunBatch(w->p(), w->requests, w->expected);
    w->Add(pass);
    dps.push_back(w->docs() / pass.seconds);
    parse_ms->insert(parse_ms->end(), pass.parse_ms.begin(),
                     pass.parse_ms.end());
  } while (NowNs() < end);
  return dps;
}

/// The untraced run: closed-loop rounds of the whole corpus (docs/s, heavy
/// latency), each followed by a few documents parsed one request at a time
/// (light latency), so both sample the whole run. With `pause`, each round
/// ends by printing "pause" and waiting for a line on stdin, so the caller
/// can time set-up processes spread over the run while this one is idle;
/// pauses do not count toward `seconds`.
void MeasureBatch(Workload* w, double seconds, bool pause, JsonOut* j) {
  // docs/s is the median over rounds, so a host slowdown shorter than the
  // run does not set it; latency percentiles are windowed by round.
  std::vector<double> dps;
  std::vector<std::vector<double>> heavy_ms, light_ms;
  const int nproc = ThreadPool::Global().NumThreads();
  size_t light_done = 0, heavy_done = 0;
  const int light_per_round = std::max(1, w->docs() / 4);
  int64_t measured_ns = 0;
  do {
    const int64_t round_start = NowNs();
    const Pass pass = RunBatch(w->p(), w->requests, w->expected);
    w->Add(pass);
    dps.push_back(w->docs() / pass.seconds);
    heavy_ms.push_back(pass.parse_ms);
    heavy_done += pass.parse_ms.size();
    light_ms.emplace_back();
    // Light requests run on a one-thread pool: a lone request's intra-op
    // fork-join pays worker wake-ups whose cost on a shared host changes
    // from process to process, which would swamp the per-document cost.
    ThreadPool::Global().SetNumThreads(1);
    for (int i = 0; i < light_per_round; ++i, ++light_done) {
      const size_t k = light_done % w->requests.size();
      const int64_t t0 = NowNs();
      const ParseResponse r = w->p().Parse(w->requests[k]);
      light_ms.back().push_back(Seconds(NowNs() - t0) * 1e3);
      ++w->attempted;
      w->failed += !r.ok();
      w->mismatched += r.ok() && ResuFormerPipeline::ToPrettyString(r.resume) !=
                                     w->expected[k];
    }
    ThreadPool::Global().SetNumThreads(nproc);
    measured_ns += NowNs() - round_start;
    if (pause) {
      std::printf("pause\n");
      std::fflush(stdout);
      std::string line;
      if (!std::getline(std::cin, line)) Die("stdin closed during a pause");
    }
  } while (measured_ns < static_cast<int64_t>(seconds * 0.75 * 1e9));
  j->Num("docs_per_s", Quantile(dps, 0.5));
  j->Num("rounds", static_cast<double>(dps.size()));
  j->Num("heavy_p50_ms", WindowedQuantile(heavy_ms, 0.5));
  j->Num("heavy_p90_ms", WindowedQuantile(heavy_ms, 0.9));
  j->Num("heavy_samples", static_cast<double>(heavy_done));
  j->Num("light_p50_ms", WindowedQuantile(light_ms, 0.5));
  j->Num("light_p90_ms", WindowedQuantile(light_ms, 0.9));
  j->Num("light_samples", static_cast<double>(light_done));
}

/// Composes every document through `planner` (null: dynamic path) on the
/// pool, one document per task as Parse(vector) does.
std::vector<StructuredResume> ComposeAll(const Workload& w,
                                         core::InferencePlanner* planner,
                                         int n, std::vector<ComposeStats>* cs) {
  std::vector<StructuredResume> out(n);
  cs->assign(n, ComposeStats{});
  ThreadPool::Global().ParallelFor(n, [&](int, int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      out[i] = ComposedParse(w.p(), planner, w.inputs[i].doc, i, &(*cs)[i]);
    }
  });
  return out;
}

double MeanMs(const std::map<std::string, SelfTime>& m, const char* name) {
  auto it = m.find(name);
  if (it == m.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / 1e6 / static_cast<double>(it->second.count);
}

/// Plan-cache counters: builds over a cold pass, hits over a hot one.
void PlanMetrics(const CounterDelta& cold, const CounterDelta& hot,
                 JsonOut* j) {
  j->Num("core.plan_builds", cold("plan.builds"));
  j->Num("core.plan_hit_rate",
         hot("plan.cache_hits") /
             std::max(1.0, hot("plan.cache_hits") + hot("plan.cache_misses")));
  j->Num("core.plan_fallbacks", cold("plan.fallbacks") + hot("plan.fallbacks"));
}

/// The traced run: per-layer attribution of this workload's parses.
void MeasureLayers(Workload* w, const Flags& f, double seconds, JsonOut* j) {
  const int n = w->docs();
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());

  // 1. Untraced rounds: the docs/s base for the overhead, counters per doc,
  // and the registry read a kStats poll performs, every 100 ms, under load.
  const metrics::MetricsSnapshot before = Snap();
  std::vector<double> parse_ms, admin_ms;
  std::atomic<bool> stop{false};
  std::thread admin([&] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const int64_t t0 = NowNs();
      const std::string json = Snap().ToJson();
      admin_ms.push_back(Seconds(NowNs() - t0) * 1e3 + 0 * json.size());
    }
  });
  const long long attempted_before = w->attempted;
  const double dps = Quantile(Rounds(w, seconds * 0.3, &parse_ms), 0.5);
  stop.store(true);
  admin.join();
  const CounterDelta d{before, Snap()};
  j->Num("serve.admin_p90_ms", Quantile(admin_ms, 0.9));
  const double counted = static_cast<double>(w->attempted - attempted_before);

  // 2. Serial: the same documents on one pool thread.
  const int serial_docs = w->paper ? std::min(2, n) : n;
  ThreadPool::Global().SetNumThreads(1);
  const Pass serial = RunBatch(
      w->p(),
      std::vector<ParseRequest>(w->requests.begin(),
                                w->requests.begin() + serial_docs),
      std::vector<std::string>(w->expected.begin(),
                               w->expected.begin() + serial_docs));
  ThreadPool::Global().SetNumThreads(nproc);
  w->Add(serial);
  const double serial_dps = serial_docs / serial.seconds;

  // 3. Traced rounds of the composed parse. On the paper model the planner
  // is this run's own (the pipeline's is private); it is warmed untraced
  // first so the traced rounds replay, as Parse does after its first pass.
  std::unique_ptr<core::InferencePlanner> planner;
  std::vector<ComposeStats> cs;
  if (w->paper) {
    planner = std::make_unique<core::InferencePlanner>(&w->p().block_classifier());
    ComposeAll(*w, planner.get(), n, &cs);
  }
  SetTracing(true);
  std::vector<double> traced_dps;
  long long composed_mismatches = 0;
  const int64_t traced_end = NowNs() + static_cast<int64_t>(seconds * 0.3 * 1e9);
  do {
    const int64_t t0 = NowNs();
    const std::vector<StructuredResume> got = ComposeAll(*w, planner.get(), n, &cs);
    traced_dps.push_back(n / Seconds(NowNs() - t0));
    for (int i = 0; i < n; ++i) {
      composed_mismatches +=
          ResuFormerPipeline::ToPrettyString(got[i]) != w->expected[i];
    }
  } while (NowNs() < traced_end);
  SetTracing(false);
  const std::vector<Span> spans = CollectSpans();
  ClearSpans();
  const auto self = SelfTimes(spans);
  w->mismatched += composed_mismatches;

  // 4. The path this workload does not take, timed on a sample: fp32 plan
  // replay on the table model (what plan-by-default would cost), the
  // dynamic encoder split on the paper model.
  std::map<std::string, SelfTime> other;
  {
    const int sample = w->paper ? std::min(2, n) : n;
    std::unique_ptr<core::InferencePlanner> other_planner;
    std::vector<ComposeStats> unused;
    const metrics::MetricsSnapshot cold = Snap();
    if (!w->paper) {
      other_planner =
          std::make_unique<core::InferencePlanner>(&w->p().block_classifier());
      ComposeAll(*w, other_planner.get(), sample, &unused);
    }
    const metrics::MetricsSnapshot warm = Snap();
    SetTracing(true);
    ComposeAll(*w, other_planner.get(), sample, &unused);
    SetTracing(false);
    other = SelfTimes(CollectSpans());
    ClearSpans();
    if (w->paper) {
      PlanMetrics(CounterDelta{w->boot, w->after_warm}, d, j);
    } else {
      PlanMetrics(CounterDelta{cold, warm}, CounterDelta{warm, Snap()}, j);
    }
  }
  auto layer_ms = [&](const char* name) {
    return self.count(name) ? MeanMs(self, name) : MeanMs(other, name);
  };

  // Coverage: the share of the composed parses' time that layer spans,
  // not the composition's own glue, account for.
  const SelfTime root = self.count("pipeline.parse") ? self.at("pipeline.parse")
                                                     : SelfTime{};
  const double traced = Quantile(traced_dps, 0.5);
  j->Num("trace.layer_coverage",
         root.total_ns > 0 ? 1.0 - root.self_ns / root.total_ns : 0.0);
  j->Num("trace.composed_mismatches", static_cast<double>(composed_mismatches));
  j->Num("trace.spans", static_cast<double>(spans.size()));
  j->Num("trace.traced_docs_per_s", traced);
  j->Num("trace.overhead_frac", dps / traced - 1.0);

  double sentences = 0, blocks = 0, entities = 0;
  for (const ParseResponse& r : w->first_pass) {
    sentences += r.stats.num_sentences;
    blocks += r.stats.num_blocks;
    entities += r.stats.num_entities;
  }
  j->Num("pipeline.parse_p50_ms", Quantile(parse_ms, 0.5));
  j->Num("pipeline.batch_parallel_eff", dps / (nproc * serial_dps));
  j->Num("pipeline.batch_docs_per_s", dps);
  j->Num("pipeline.serial_docs_per_s", serial_dps);
  j->Num("pipeline.sentences_per_doc", sentences / n);
  j->Num("pipeline.blocks_per_doc", blocks / n);
  j->Num("pipeline.entities_per_doc", entities / n);

  j->Num("core.encode_us", layer_ms("core.encode") * 1e3);
  j->Num("core.sentence_encoder_ms", layer_ms("core.sentence_encoder"));
  j->Num("core.document_encoder_ms", layer_ms("core.document_encoder"));
  j->Num("core.head_ms", layer_ms("core.head"));
  j->Num("core.plan_predict_ms", layer_ms("core.plan_predict"));
  j->Num("core.first_parse_ms", w->first_parse_ms);
  j->Num("crf.decode_us", layer_ms("crf.decode") * 1e3);
  double ner_calls = 0, ner_words = 0;
  for (const ComposeStats& c : cs) {
    ner_calls += c.ner_calls;
    ner_words += c.ner_words;
  }
  j->Num("selftrain.ner_ms", self.count("selftrain.ner")
                                 ? self.at("selftrain.ner").total_ns / 1e6 /
                                       static_cast<double>(root.count)
                                 : 0.0);
  j->Num("selftrain.ner_calls_per_doc", ner_calls / n);
  j->Num("selftrain.ner_words_per_doc", ner_words / n);

  const double gemm_calls =
      d("ops.gemm_nn.calls") + d("ops.gemm_nt.calls") + d("ops.gemm_tn.calls");
  const double attention = d("ops.fused_attention.calls");
  const double flops = d("ops.gemm.forward_flops");
  j->Num("tensor.gemm_calls_per_doc", gemm_calls / counted);
  j->Num("tensor.gemm_gflop_per_doc", flops / counted / 1e9);
  j->Num("tensor.mflop_per_gemm_call",
         flops / std::max(1.0, gemm_calls + attention) / 1e6);
  j->Num("tensor.int8_quants_per_doc", d("quant.dynamic_quants") / counted);
  j->Num("tensor.attention_calls_per_doc", attention / counted);
  j->Num("tensor.arena_hit_rate",
         d("arena.hits") / std::max(1.0, d("arena.hits") + d("arena.misses")));
  j->Num("common.pool_dispatches_per_doc",
         d("threadpool.parallel_for.dispatches") / counted);
  j->Num("common.pool_contended_inline",
         d("threadpool.parallel_for.contended_inline") / counted);

  // The serve layer's pure functions on this workload's documents.
  std::vector<double> decode_us, render_us;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < n; ++i) {
      const std::string text = serve::DocumentToText(w->inputs[i].doc);
      int64_t t0 = NowNs();
      const doc::Document decoded = serve::DocumentFromText(text);
      decode_us.push_back(Seconds(NowNs() - t0) * 1e6 +
                          0 * decoded.NumSentences());
      t0 = NowNs();
      const std::string json =
          ResuFormerPipeline::ToPrettyString(w->first_pass[i].resume);
      render_us.push_back(Seconds(NowNs() - t0) * 1e6 + 0 * json.size());
    }
  }
  j->Num("serve.text_decode_us", Quantile(decode_us, 0.5));
  j->Num("serve.render_json_us", Quantile(render_us, 0.5));
  if (f.Int("--serve-segment", 1) != 0) {
    ServeSegment(w->p(), w->inputs, 0.5 * dps, seconds * 0.25,
                 static_cast<uint64_t>(f.Int("--seed", 1)), j);
    j->Num("serve.threads_end", CountThreads());
    j->Num("serve.vm_mb_end", ProcStatusMb("VmSize"));
    j->Num("serve.maps_end", CountLines("/proc/self/maps"));
  }
  const std::string spans_path = f.Get("--spans");
  if (!spans_path.empty()) WriteSpans(spans, spans_path);
}

int CmdBatch(const Flags& f) {
  const std::string kind = f.Get("--kind");
  const bool via_text = f.Int("--text", 0) != 0;
  const uint64_t seed = static_cast<uint64_t>(f.Int("--seed", 1));
  const int num_docs = static_cast<int>(f.Int("--docs", 32));
  const double seconds = f.Double("--seconds", 10);

  Workload w;
  w.paper = kind == "paper";
  w.boot = Snap();
  w.model = SetUp(f, via_text, &w.first_parse_ms);
  for (int i = 0; i < num_docs; ++i) {
    w.inputs.push_back(MakeInput(seed, i, via_text));
  }
  w.requests = Requests(w.inputs, true);

  // First pass: fills the remaining plan buckets and gives the reference
  // outputs.
  w.first_pass = w.p().Parse(w.requests);
  w.after_warm = Snap();
  double sentences = 0, entities = 0, tokens = 0;
  for (int i = 0; i < num_docs; ++i) {
    const ParseResponse& r = w.first_pass[i];
    w.failed += !r.ok();
    w.expected.push_back(ResuFormerPipeline::ToPrettyString(r.resume));
    sentences += r.stats.num_sentences;
    entities += r.stats.num_entities;
    for (const auto& s : w.inputs[i].doc.sentences) tokens += s.tokens.size();
  }
  w.attempted = num_docs;

  JsonOut j;
  j.Num("docs", num_docs);
  j.Num("sentences_per_doc", sentences / num_docs);
  j.Num("tokens_per_doc", tokens / num_docs);
  j.Num("entities_per_doc", entities / num_docs);
  if (w.paper) {
    // Table quality comes from the `quality` subcommand.
    const Agreement agreement = Int8Agreement(w.p(), w.inputs, w.first_pass);
    j.Num("block_acc", agreement.TagAccuracy());
    j.Num("entity_f1", agreement.EntityF1());
  }
  if (f.Int("--trace", 0) != 0) {
    MeasureLayers(&w, f, seconds, &j);
  } else {
    MeasureBatch(&w, seconds, f.Int("--pause", 0) != 0, &j);
  }
  j.Num("attempted", static_cast<double>(w.attempted));
  j.Num("failed", static_cast<double>(w.failed));
  j.Num("mismatched", static_cast<double>(w.mismatched));
  j.Num("peak_rss_mb", ProcStatusMb("VmHWM"));
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Die("usage: rf_perfbench calibrate|prepare-paper|setup|batch|serve-inputs|quality [--flag value]...");
  Flags f;
  for (int i = 2; i + 1 < argc; i += 2) f.values[argv[i]] = argv[i + 1];
  const std::string cmd = argv[1];
  if (cmd == "calibrate") return CmdCalibrate();
  if (cmd == "prepare-paper") return CmdPreparePaper(f);
  if (cmd == "setup") return CmdSetup(f);
  if (cmd == "batch") return CmdBatch(f);
  if (cmd == "serve-inputs") return CmdServeInputs(f);
  if (cmd == "quality") return CmdQuality(f);
  Die("unknown subcommand " + cmd);
}
