#include "topk/incremental_merge.h"

#include "util/logging.h"

namespace specqp {

IncrementalMerge::IncrementalMerge(
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs, ExecContext* ctx)
    : inputs_(std::move(inputs)),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()) {
  SPECQP_CHECK(!inputs_.empty());
  SPECQP_CHECK(stats_ != nullptr);
  heads_.resize(inputs_.size());
}

void IncrementalMerge::Prime(size_t i) {
  Head& head = heads_[i];
  head.primed = true;
  head.valid = inputs_[i]->Next(&head.row);
}

bool IncrementalMerge::Next(ScoredRow* out) {
  while (true) {
    if (ctx_->Interrupted()) return false;  // cancellation / deadline
    // The effective bound of input i: the score of its buffered head if
    // primed, otherwise the input's own upper bound — which lets us defer
    // pulling from low-weight relaxation lists until their cap is actually
    // reached (the "incremental" in incremental merge).
    double best = kExhausted;
    size_t best_i = inputs_.size();
    for (size_t i = 0; i < inputs_.size(); ++i) {
      const Head& head = heads_[i];
      double bound;
      if (head.primed) {
        bound = head.valid ? head.row.score : kExhausted;
      } else {
        bound = inputs_[i]->UpperBound();
      }
      if (bound > best) {
        best = bound;
        best_i = i;
      }
    }
    if (best_i == inputs_.size() || best <= kExhausted) return false;

    if (!heads_[best_i].primed) {
      Prime(best_i);
      continue;  // bounds changed; re-select
    }

    // The head of best_i is a real row whose score dominates every other
    // input's bound: safe to emit in globally sorted order.
    ScoredRow row = std::move(heads_[best_i].row);
    Prime(best_i);  // advance that input

    if (!seen_.insert(row.bindings).second) {
      ++stats_->merge_duplicates;
      continue;  // a lower-scored derivation of an already-emitted answer
    }
    ++stats_->merge_rows;
    *out = std::move(row);
    return true;
  }
}

void IncrementalMerge::Discard() {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    inputs_[i]->Discard();
    // Mark every head exhausted so Next() reports false without pulling.
    heads_[i].primed = true;
    heads_[i].valid = false;
  }
}

double IncrementalMerge::UpperBound() const {
  double best = kExhausted;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const Head& head = heads_[i];
    const double bound = head.primed
                             ? (head.valid ? head.row.score : kExhausted)
                             : inputs_[i]->UpperBound();
    if (bound > best) best = bound;
  }
  return best;
}

}  // namespace specqp
