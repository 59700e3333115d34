#ifndef SPECQP_SERVEBENCH_CHECKS_H_
#define SPECQP_SERVEBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exhaustive.h"
#include "core/query_plan.h"
#include "core/request.h"
#include "topk/scored_row.h"

namespace specqp::servebench {

// The exhaustive oracle's answers to one query, and the checks every
// response to that query must pass. The oracle is independent of the planner
// and operator code, so a response is judged against the answer space, not
// against another run of the engine.
class QueryTruth {
 public:
  QueryTruth(ExhaustiveEvaluator::EvalResult truth, size_t num_patterns);

  // Empty when `response` is correct for its own plan, else why not:
  //  - its status is OK, its rows are sorted by score descending and their
  //    bindings are distinct;
  //  - its rows are the top-min(k, n) of the oracle's answers re-scored
  //    under `relaxed`: a pattern in `relaxed` scores its best derivation
  //    (best_scores), any other pattern its original match
  //    (original_scores), and answers without an original match for such a
  //    pattern drop out. The score sequences must be equal, and each row's
  //    binding must be such an answer with the row's score.
  // A Spec-QP response passes its plan's singletons as `relaxed`; a TriniT
  // response passes every pattern, which makes the expectation the oracle's
  // true top-k.
  std::string Check(const QueryResponse& response,
                    const std::vector<size_t>& relaxed, size_t k);

  // |rows ∩ true top-k| / min(k, n), as in the paper's Table 2 (1 when the
  // relaxation space holds no answer).
  double Precision(const std::vector<ScoredRow>& rows, size_t k) const;

  // Whether `plan`'s singletons are exactly the patterns whose relaxations
  // the true top-k needs (Table 3).
  bool PredictionExact(const QueryPlan& plan, size_t k);

  size_t num_patterns() const { return num_patterns_; }
  size_t num_answers() const { return truth_.answers.size(); }

 private:
  struct Rescored {
    std::vector<double> scores;  // descending
    std::unordered_map<std::vector<TermId>, double, BindingsHash> score_of;
  };
  const Rescored& RescoreUnder(const std::vector<size_t>& relaxed);

  ExhaustiveEvaluator::EvalResult truth_;
  size_t num_patterns_;
  std::map<uint64_t, Rescored> rescored_;  // keyed by relaxed-pattern mask
  std::map<size_t, std::vector<size_t>> required_;  // k -> required set
};

// Every pattern index of an n-pattern query: the TriniT plan's singletons.
std::vector<size_t> AllPatterns(size_t num_patterns);

}  // namespace specqp::servebench

#endif  // SPECQP_SERVEBENCH_CHECKS_H_
