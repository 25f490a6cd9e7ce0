#ifndef PERFBENCH_SCORE_H_
#define PERFBENCH_SCORE_H_

// Output quality: sentence block-tag accuracy and entity-level F1 of
// (tag, text) pairs, read off a StructuredResume.

#include <string>
#include <utility>
#include <vector>

#include "doc/document.h"
#include "pipeline/pipeline.h"
#include "resumegen/renderer.h"

namespace perfbench {

using Entity = std::pair<int, std::string>;  // (EntityTag, text)

/// Block tag of each sentence of `document` (-1 = in no block), recovered
/// by aligning each block's lines, in order, with the document's sentences.
std::vector<int> SentenceTags(const resuformer::doc::Document& document,
                              const resuformer::pipeline::StructuredResume& r);

/// Block tag per IOB block label (-1 for the outside label).
std::vector<int> TagsFromLabels(const std::vector<int>& labels);

/// Gold entities: IOB runs over the document's tokens in reading order.
std::vector<Entity> GoldEntities(const resuformer::resumegen::GeneratedResume& g);

std::vector<Entity> ParsedEntities(
    const resuformer::pipeline::StructuredResume& r);

/// Micro-averaged agreement tallies, summed over documents.
struct Agreement {
  long long tags_equal = 0;
  long long tags_total = 0;
  long long entities_matched = 0;  // multiset intersection
  long long entities_predicted = 0;
  long long entities_reference = 0;

  void AddTags(const std::vector<int>& predicted,
               const std::vector<int>& reference);
  void AddEntities(std::vector<Entity> predicted,
                   std::vector<Entity> reference);
  double TagAccuracy() const;
  double EntityF1() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SCORE_H_
