#ifndef SPECQP_TOPK_RANK_JOIN_H_
#define SPECQP_TOPK_RANK_JOIN_H_

#include <limits>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "topk/exec_context.h"
#include "topk/operator.h"

namespace specqp {

// Hash Rank Join (HRJN, Ilyas et al. — the paper's [15, 17]): joins two
// score-descending inputs on the given variables and emits join results in
// descending order of the score *sum*, reading as little of each input as
// possible.
//
// State: one hash table per input keyed on the join-variable values, an
// output priority queue, and the classic corner-bound threshold
//
//   T = max( topL + ubR , ubL + topR )
//
// where topX is the highest score seen on input X (its first row) and ubX
// the input's bound on unseen rows. Input selection follows HRJN*: pull
// from the input with the higher remaining upper bound.
//
// Emission is *strict*: a buffered result is emitted only once its score
// strictly exceeds T, i.e. once no future join result can tie it. Together
// with the RowBefore-ordered output queue this makes the emitted stream a
// total order — (score descending, bindings ascending) — that is a pure
// function of the input *contents*, independent of pull interleaving. The
// parallel execution layer relies on this: per-partition RankJoin streams
// merge back into exactly the serial emission order (see
// parallel_rank_join.h), so thread count never changes answers. When an
// input side is exhausted its corner term drops out, and once both are
// exhausted the queue drains in RowBefore order.
//
// Cost of determinism: before emitting at score s the join must read each
// input past its band of rows tied at the relevant corner score (the old
// `>= T - eps` rule could emit mid-band, in discovery order). Reads and
// buffering therefore grow with the width of the top score-tie bands —
// degenerating to a full drain only when an entire input is one tied band
// (uniform scores). Hash partitioning shrinks each band by the partition
// factor, so the parallel path also bounds this cost per partition.
class RankJoin final : public ScoredRowIterator {
 public:
  // `join_vars`: variables bound on both sides (may be empty — degenerates
  // to a cross product, still score-ordered).
  RankJoin(std::unique_ptr<ScoredRowIterator> left,
           std::unique_ptr<ScoredRowIterator> right,
           std::vector<VarId> join_vars, ExecContext* ctx);

  RankJoin(const RankJoin&) = delete;
  RankJoin& operator=(const RankJoin&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;

 private:
  using JoinKey = std::vector<TermId>;
  using HashTable = std::unordered_map<JoinKey, std::vector<ScoredRow>,
                                       BindingsHash>;

  JoinKey KeyOf(const ScoredRow& row) const;
  double Threshold() const;
  // Pulls one row from the chosen input and joins it against the other
  // side's table; returns false if both inputs are exhausted.
  bool Advance();

  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-9;

  std::unique_ptr<ScoredRowIterator> left_;
  std::unique_ptr<ScoredRowIterator> right_;
  std::vector<VarId> join_vars_;
  ExecContext* ctx_;
  ExecStats* stats_;

  HashTable left_table_;
  HashTable right_table_;
  bool left_done_ = false;
  bool right_done_ = false;
  bool left_seen_ = false;
  bool right_seen_ = false;
  double left_top_ = 0.0;
  double right_top_ = 0.0;
  bool pull_left_next_ = true;  // tie-breaker for alternating pulls

  struct QueueOrder {
    // std::priority_queue keeps the *greatest* element (per comparator) on
    // top; RowBefore(a, b) == "a should be emitted before b".
    bool operator()(const ScoredRow& a, const ScoredRow& b) const {
      return RowBefore(b, a);
    }
  };
  std::priority_queue<ScoredRow, std::vector<ScoredRow>, QueueOrder> queue_;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_RANK_JOIN_H_
