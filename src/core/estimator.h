#ifndef SPECQP_CORE_ESTIMATOR_H_
#define SPECQP_CORE_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "query/query.h"
#include "stats/catalog.h"
#include "stats/distribution.h"
#include "stats/selectivity.h"

namespace specqp {

// The expected score estimator of section 3.1: models the answer-score
// distribution of a whole query as the convolution of the per-pattern score
// distributions, and combines it with a join-cardinality estimate so order
// statistics can place expected scores at ranks.
class ExpectedScoreEstimator {
 public:
  enum class Model {
    // The paper's default: each convolution result is refit to a two-bucket
    // histogram before the next convolution (cheap, approximate).
    kTwoBucket,
    // Ablation: keep the exact (numerically gridded) shape across
    // convolutions — the "multi-bucket histogram" alternative of §4.5.2.
    kExactGrid,
  };

  struct Estimate {
    // Expected number of answers (m12 = m·m'·φ chain). Zero when any
    // pattern is empty.
    double cardinality = 0.0;
    // Distribution of one answer's score; null when cardinality is 0.
    std::shared_ptr<const ScoreDistribution> distribution;

    bool empty() const { return distribution == nullptr; }

    // E(score at rank) via order statistics; 0 when the query is not
    // expected to have that many answers (see order_statistics.h).
    double ExpectedAtRank(uint64_t rank) const;
  };

  ExpectedScoreEstimator(StatisticsCatalog* catalog,
                         SelectivityEstimator* selectivity,
                         Model model = Model::kTwoBucket,
                         double grid_delta = 1.0 / 512.0);

  ExpectedScoreEstimator(const ExpectedScoreEstimator&) = delete;
  ExpectedScoreEstimator& operator=(const ExpectedScoreEstimator&) = delete;

  // Estimates the score distribution of `query` where the matches of
  // pattern i are discounted by weights[i] (1.0 = not relaxed; a relaxed
  // query passes its rule weight at the relaxed position). `weights` must
  // have one entry per pattern, or be empty for all-ones.
  Estimate EstimateQuery(const Query& query,
                         const std::vector<double>& weights = {});

  Model model() const { return model_; }

 private:
  StatisticsCatalog* catalog_;
  SelectivityEstimator* selectivity_;
  Model model_;
  double grid_delta_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_ESTIMATOR_H_
