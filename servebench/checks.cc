#include "checks.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/string_util.h"

namespace specqp::servebench {
namespace {

// Scores are sums of a few doubles; the operators and the oracle may add
// them in different orders.
bool SameScore(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

}  // namespace

std::vector<size_t> AllPatterns(size_t num_patterns) {
  std::vector<size_t> all(num_patterns);
  for (size_t i = 0; i < num_patterns; ++i) all[i] = i;
  return all;
}

QueryTruth::QueryTruth(ExhaustiveEvaluator::EvalResult truth,
                       size_t num_patterns)
    : truth_(std::move(truth)), num_patterns_(num_patterns) {}

const QueryTruth::Rescored& QueryTruth::RescoreUnder(
    const std::vector<size_t>& relaxed) {
  uint64_t mask = 0;
  for (size_t i : relaxed) mask |= uint64_t{1} << i;
  auto [it, inserted] = rescored_.try_emplace(mask);
  if (!inserted) return it->second;
  Rescored& out = it->second;
  for (const ExhaustiveEvaluator::Answer& answer : truth_.answers) {
    double score = 0.0;
    bool kept = true;
    for (size_t p = 0; p < num_patterns_ && kept; ++p) {
      if ((mask >> p) & 1) {
        score += answer.best_scores[p];
      } else if (answer.original_scores[p] ==
                 ExhaustiveEvaluator::Answer::kNoOriginal) {
        kept = false;
      } else {
        score += answer.original_scores[p];
      }
    }
    if (!kept) continue;
    out.scores.push_back(score);
    out.score_of.emplace(answer.bindings, score);
  }
  std::sort(out.scores.begin(), out.scores.end(), std::greater<double>());
  return out;
}

std::string QueryTruth::Check(const QueryResponse& response,
                              const std::vector<size_t>& relaxed, size_t k) {
  if (!response.ok()) return "status " + response.status.ToString();
  const std::vector<ScoredRow>& rows = response.rows;
  std::unordered_set<std::vector<TermId>, BindingsHash> seen;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].score > rows[i - 1].score) {
      return StrFormat("row %zu scores above row %zu", i, i - 1);
    }
    if (!seen.insert(rows[i].bindings).second) {
      return StrFormat("row %zu repeats an earlier binding", i);
    }
  }
  for (size_t p : relaxed) {
    if (p >= num_patterns_ || p >= 64) {
      return StrFormat("plan relaxes pattern %zu of %zu", p, num_patterns_);
    }
  }

  const Rescored& expected = RescoreUnder(relaxed);
  const size_t want = std::min(k, expected.scores.size());
  if (rows.size() != want) {
    return StrFormat("%zu rows, oracle under the plan has %zu", rows.size(),
                     want);
  }
  for (size_t i = 0; i < want; ++i) {
    if (!SameScore(rows[i].score, expected.scores[i])) {
      return StrFormat("row %zu score %.17g, oracle under the plan %.17g", i,
                       rows[i].score, expected.scores[i]);
    }
    auto it = expected.score_of.find(rows[i].bindings);
    if (it == expected.score_of.end()) {
      return StrFormat("row %zu is no answer under the plan", i);
    }
    if (!SameScore(rows[i].score, it->second)) {
      return StrFormat("row %zu score %.17g, its binding scores %.17g", i,
                       rows[i].score, it->second);
    }
  }
  return "";
}

double QueryTruth::Precision(const std::vector<ScoredRow>& rows,
                             size_t k) const {
  const size_t denom = std::min(k, truth_.answers.size());
  if (denom == 0) return 1.0;
  std::unordered_set<std::vector<TermId>, BindingsHash> top;
  for (size_t i = 0; i < denom; ++i) top.insert(truth_.answers[i].bindings);
  size_t hits = 0;
  for (size_t i = 0; i < rows.size() && i < k; ++i) {
    hits += top.count(rows[i].bindings);
  }
  return static_cast<double>(hits) / static_cast<double>(denom);
}

bool QueryTruth::PredictionExact(const QueryPlan& plan, size_t k) {
  auto it = required_.find(k);
  if (it == required_.end()) {
    it = required_.emplace(k, truth_.RequiredRelaxations(k)).first;
  }
  std::vector<size_t> predicted = plan.singletons;
  std::sort(predicted.begin(), predicted.end());
  return predicted == it->second;
}

}  // namespace specqp::servebench
