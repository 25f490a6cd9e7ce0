#include "score.h"

#include <algorithm>

#include "doc/block_tags.h"

namespace perfbench {

namespace doc = resuformer::doc;
using resuformer::pipeline::StructuredResume;

std::vector<int> SentenceTags(const doc::Document& document,
                              const StructuredResume& r) {
  const int n = document.NumSentences();
  std::vector<int> tags(n, -1);
  int next = 0;
  for (const auto& block : r.blocks) {
    const int len = static_cast<int>(block.lines.size());
    for (int s = next; s + len <= n; ++s) {
      bool match = true;
      for (int i = 0; i < len && match; ++i) {
        match = document.sentences[s + i].Text() == block.lines[i];
      }
      if (!match) continue;
      for (int i = 0; i < len; ++i) tags[s + i] = static_cast<int>(block.tag);
      next = s + len;
      break;
    }
  }
  return tags;
}

std::vector<int> TagsFromLabels(const std::vector<int>& labels) {
  std::vector<int> tags;
  tags.reserve(labels.size());
  for (int label : labels) {
    doc::BlockTag tag;
    bool begin;
    tags.push_back(doc::ParseIobLabel(label, &tag, &begin)
                       ? static_cast<int>(tag)
                       : -1);
  }
  return tags;
}

std::vector<Entity> GoldEntities(
    const resuformer::resumegen::GeneratedResume& g) {
  std::vector<std::string> words;
  std::vector<int> labels;
  for (size_t s = 0; s < g.document.sentences.size(); ++s) {
    const auto& tokens = g.document.sentences[s].tokens;
    for (size_t t = 0; t < tokens.size(); ++t) {
      words.push_back(tokens[t].word);
      labels.push_back(s < g.entity_labels.size() &&
                               t < g.entity_labels[s].size()
                           ? g.entity_labels[s][t]
                           : 0);
    }
  }
  // Same IOB-run reconstruction the pipeline applies to NER output.
  std::vector<Entity> out;
  size_t i = 0;
  while (i < labels.size()) {
    doc::EntityTag tag;
    bool begin;
    if (!doc::ParseEntityIobLabel(labels[i], &tag, &begin)) {
      ++i;
      continue;
    }
    std::string text = words[i];
    size_t j = i + 1;
    doc::EntityTag tag2;
    bool begin2;
    while (j < labels.size() &&
           doc::ParseEntityIobLabel(labels[j], &tag2, &begin2) && !begin2 &&
           tag2 == tag) {
      text += " " + words[j];
      ++j;
    }
    out.emplace_back(static_cast<int>(tag), text);
    i = j;
  }
  return out;
}

std::vector<Entity> ParsedEntities(const StructuredResume& r) {
  std::vector<Entity> out;
  for (const auto& block : r.blocks) {
    for (const auto& e : block.entities) {
      out.emplace_back(static_cast<int>(e.tag), e.text);
    }
  }
  return out;
}

void Agreement::AddTags(const std::vector<int>& predicted,
                        const std::vector<int>& reference) {
  for (size_t i = 0; i < reference.size(); ++i) {
    tags_equal += i < predicted.size() && predicted[i] == reference[i];
    ++tags_total;
  }
}

void Agreement::AddEntities(std::vector<Entity> predicted,
                            std::vector<Entity> reference) {
  std::sort(predicted.begin(), predicted.end());
  std::sort(reference.begin(), reference.end());
  std::vector<Entity> common;
  std::set_intersection(predicted.begin(), predicted.end(), reference.begin(),
                        reference.end(), std::back_inserter(common));
  entities_matched += static_cast<long long>(common.size());
  entities_predicted += static_cast<long long>(predicted.size());
  entities_reference += static_cast<long long>(reference.size());
}

double Agreement::TagAccuracy() const {
  return tags_total > 0 ? static_cast<double>(tags_equal) / tags_total : 0.0;
}

double Agreement::EntityF1() const {
  const long long denom = entities_predicted + entities_reference;
  return denom > 0 ? 2.0 * static_cast<double>(entities_matched) / denom : 0.0;
}

}  // namespace perfbench
