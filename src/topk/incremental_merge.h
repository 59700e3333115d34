#ifndef SPECQP_TOPK_INCREMENTAL_MERGE_H_
#define SPECQP_TOPK_INCREMENTAL_MERGE_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "topk/exec_context.h"
#include "topk/operator.h"

namespace specqp {

// The Incremental Merge operator of Theobald et al. (the paper's [29], used
// as in TriniT): lazily merges the sorted streams of a triple pattern and
// all of its relaxations (each already discounted by its rule weight via
// PatternScan) into one globally score-descending stream.
//
// The same binding can be produced by several relaxations; Definition 8
// keeps the maximum-score derivation. Because the merged stream is
// descending, the first occurrence is the maximum, so later duplicates are
// suppressed with a hash set.
class IncrementalMerge final : public ScoredRowIterator {
 public:
  // At least one input; inputs are polled lazily (an input's first row is
  // only pulled when the merge first needs its head).
  IncrementalMerge(std::vector<std::unique_ptr<ScoredRowIterator>> inputs,
                   ExecContext* ctx);

  IncrementalMerge(const IncrementalMerge&) = delete;
  IncrementalMerge& operator=(const IncrementalMerge&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;

 private:
  struct Head {
    ScoredRow row;
    bool valid = false;
    bool primed = false;  // has the first Pull happened yet?
  };

  // Ensures heads_[i] holds the next row of input i (or is marked invalid).
  void Prime(size_t i);

  std::vector<std::unique_ptr<ScoredRowIterator>> inputs_;
  std::vector<Head> heads_;
  std::unordered_set<std::vector<TermId>, BindingsHash> seen_;
  ExecContext* ctx_;
  ExecStats* stats_;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_INCREMENTAL_MERGE_H_
