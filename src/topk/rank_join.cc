#include "topk/rank_join.h"

#include <algorithm>

#include "util/logging.h"

namespace specqp {

RankJoin::RankJoin(std::unique_ptr<ScoredRowIterator> left,
                   std::unique_ptr<ScoredRowIterator> right,
                   std::vector<VarId> join_vars, ExecContext* ctx)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_vars_(std::move(join_vars)),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()) {
  SPECQP_CHECK(left_ != nullptr && right_ != nullptr && stats_ != nullptr);
  // Pre-size the output queue's backing store: the buffered band between
  // the threshold and the emitted frontier regularly reaches dozens of
  // rows, and growing the heap mid-join moves every buffered ScoredRow.
  std::vector<ScoredRow> storage;
  storage.reserve(64);
  queue_ = decltype(queue_)(QueueOrder(), std::move(storage));
}

RankJoin::JoinKey RankJoin::KeyOf(const ScoredRow& row) const {
  JoinKey key;
  key.reserve(join_vars_.size());
  for (VarId v : join_vars_) {
    SPECQP_DCHECK(row.bindings[v] != kInvalidTermId)
        << "join variable unbound in input row";
    key.push_back(row.bindings[v]);
  }
  return key;
}

double RankJoin::Threshold() const {
  const double ub_l = left_done_ ? -kInf : left_->UpperBound();
  const double ub_r = right_done_ ? -kInf : right_->UpperBound();
  // Before any row is seen on a side, its "top" defaults to the side's
  // upper bound (conservative).
  const double top_l = left_seen_ ? left_top_ : std::max(ub_l, 0.0);
  const double top_r = right_seen_ ? right_top_ : std::max(ub_r, 0.0);

  // Corner bounds: (seen left) x (unseen right) and (unseen left) x (seen
  // right). A corner with an exhausted unseen side cannot produce results.
  const double corner_lr = right_done_ ? -kInf : top_l + ub_r;
  const double corner_rl = left_done_ ? -kInf : ub_l + top_r;
  return std::max(corner_lr, corner_rl);
}

bool RankJoin::Advance() {
  // HRJN* pull strategy: take from the input whose unseen rows have the
  // higher bound; alternate on ties.
  const double ub_l = left_done_ ? -kInf : left_->UpperBound();
  const double ub_r = right_done_ ? -kInf : right_->UpperBound();
  if (left_done_ && right_done_) return false;

  bool pull_left;
  if (left_done_) {
    pull_left = false;
  } else if (right_done_) {
    pull_left = true;
  } else if (ub_l != ub_r) {
    pull_left = ub_l > ub_r;
  } else {
    pull_left = pull_left_next_;
    pull_left_next_ = !pull_left_next_;
  }

  ScoredRowIterator* input = pull_left ? left_.get() : right_.get();
  ScoredRow row;
  if (!input->Next(&row)) {
    (pull_left ? left_done_ : right_done_) = true;
    // Dead-side pruning: a side that exhausted without producing a single
    // row (its hash table is empty) can never supply a join partner, so no
    // row the other input still holds can contribute a result. Discarding
    // the other side lets block-backed scans account their remaining blocks
    // as skipped instead of decoding them. Both the trigger (an input's
    // contents) and the effect (suppressing rows that would join against an
    // empty table) are pull-order independent, so emitted answers are
    // unchanged.
    if (pull_left && !right_done_ && left_table_.empty()) {
      right_->Discard();
      right_done_ = true;
    } else if (!pull_left && !left_done_ && right_table_.empty()) {
      left_->Discard();
      left_done_ = true;
    }
    return true;  // state changed; caller re-evaluates
  }

  if (pull_left) {
    if (!left_seen_) {
      left_seen_ = true;
      left_top_ = row.score;
    }
  } else {
    if (!right_seen_) {
      right_seen_ = true;
      right_top_ = row.score;
    }
  }

  JoinKey key = KeyOf(row);  // non-const so the move below is real
  HashTable& own = pull_left ? left_table_ : right_table_;
  HashTable& other = pull_left ? right_table_ : left_table_;

  ++stats_->join_hash_probes;
  auto it = other.find(key);
  if (it != other.end()) {
    for (const ScoredRow& match : it->second) {
      // Key equality guarantees the join variables agree; any remaining
      // overlap is non-join slots, where the LEFT input's binding wins
      // deterministically (MergeBindingsInto is left-biased), independent
      // of which side happened to be probed. With empty join_vars_ every
      // pair matches and this degenerates to the cross product.
      ScoredRow merged = pull_left ? row : match;
      MergeBindingsInto(pull_left ? match : row, &merged);
      merged.score = row.score + match.score;
      ++stats_->join_results;
      ++stats_->answer_objects;
      queue_.push(std::move(merged));
    }
  }
  own[std::move(key)].push_back(std::move(row));
  return true;
}

bool RankJoin::Next(ScoredRow* out) {
  while (true) {
    // Cooperative cancellation/deadline: checked once per pull-or-emit
    // iteration, so an interrupted join stops within one input row even
    // mid-drain. Buffered rows are abandoned — the caller discards partial
    // output on abort anyway.
    if (ctx_->Interrupted()) return false;
    // Strict emission: only emit once no future join result can reach the
    // buffered top's score. Any result formed after this point combines at
    // least one unseen row and is therefore bounded by T, so every row
    // that could tie the top is already in the queue — which pops in
    // RowBefore order. This is what makes the output a deterministic total
    // order instead of a discovery order (required for parallel == serial).
    const double threshold = Threshold();
    if (!queue_.empty() && queue_.top().score > threshold + kEps) {
      *out = queue_.top();
      queue_.pop();
      return true;
    }
    if (!Advance()) {
      // Both inputs exhausted: drain whatever is buffered.
      if (queue_.empty()) return false;
      *out = queue_.top();
      queue_.pop();
      return true;
    }
  }
}

double RankJoin::UpperBound() const {
  const double threshold = Threshold();
  const double buffered =
      queue_.empty() ? -kInf : queue_.top().score;
  const double bound = std::max(threshold, buffered);
  return (bound == -kInf) ? kExhausted : bound;
}

void RankJoin::Discard() {
  if (!left_done_) {
    left_->Discard();
    left_done_ = true;
  }
  if (!right_done_) {
    right_->Discard();
    right_done_ = true;
  }
  // Buffered-but-unemitted results are abandoned so Next() returns false.
  queue_ = decltype(queue_)(QueueOrder());
}

}  // namespace specqp
