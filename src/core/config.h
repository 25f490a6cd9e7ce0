#ifndef RESUFORMER_CORE_CONFIG_H_
#define RESUFORMER_CORE_CONFIG_H_

#include "common/runtime_options.h"

namespace resuformer {
namespace core {

/// Hyper-parameters of the hierarchical multi-modal model and its training.
/// Paper values are quoted in comments; defaults are the CPU-scale settings
/// from DESIGN.md Section 6 (all comparisons in the benches are run under
/// identical budgets, so only relative results are interpreted).
struct ResuFormerConfig {
  // --- architecture ---
  int hidden = 32;           // paper: 768
  int sentence_layers = 2;   // paper: 6 (RoBERTa-initialized)
  int document_layers = 2;   // paper: 4
  int num_heads = 4;         // paper: 12
  int ffn = 64;              // paper: 3072
  float dropout = 0.1f;
  int max_tokens_per_sentence = 24;  // paper: 55
  int max_sentences = 64;            // paper: 350
  int vocab_size = 2000;     // set from the trained tokenizer
  int layout_buckets = 33;   // coordinate buckets over [0, 1000]
  int lstm_hidden = 32;      // fine-tuning BiLSTM width (paper: 256)

  // --- pre-training objectives (Section IV-A2) ---
  float word_mask_prob = 0.15f;     // MLLM masking rate (BERT convention)
  float sentence_mask_frac = 0.2f;  // k / m for SCL ("0.2 in all sentences")
  float next_sentence_frac = 0.2f;  // L / m for DNSP
  float tau = 0.8f;                 // contrastive temperature
  float lambda1 = 0.4f;             // weight of L_wp
  float lambda2 = 1.0f;             // weight of L_cl
  float lambda3 = 0.6f;             // weight of L_ns
  int mllm_sentences_per_doc = 4;   // sentences re-encoded per MLLM step

  // --- optimization ---
  // The paper uses 5e-5 / 1e-3; tiny-from-scratch models train with
  // proportionally larger encoder rates.
  float pretrain_lr = 1e-3f;
  float finetune_encoder_lr = 5e-4f;
  float finetune_head_lr = 1e-3f;
  float weight_decay = 0.01f;
  float grad_clip = 5.0f;

  // --- runtime ---
  // Process-level execution knobs (pool width, fused attention, metrics,
  // tracing) in one struct; see common/runtime_options.h. Applied
  // via ApplyRuntimeOptions when a model is constructed. Env overrides come
  // from RuntimeOptions::FromEnv(), resolved once, not per knob.
  RuntimeOptions runtime;
};

/// Applies every RuntimeOptions field to the process-wide singletons it
/// governs: thread-pool width, timed-metrics gate, tracer gate and ring
/// capacity. Idempotent; model constructors call it (through
/// ApplyThreadConfig) so the knobs take effect without extra wiring.
void ApplyRuntimeOptions(const RuntimeOptions& options);

/// Back-compat shim: applies config.runtime (historical name from when the
/// only runtime knob was the pool width).
void ApplyThreadConfig(const ResuFormerConfig& config);

}  // namespace core
}  // namespace resuformer

#endif  // RESUFORMER_CORE_CONFIG_H_
