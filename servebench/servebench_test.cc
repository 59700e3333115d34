// Tests of the benchmark's answer checks: a correct response passes, and a
// response with one row altered (score, binding, order, duplicate, missing)
// fails. Run: servebench_test (exit 0 when every case passes).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "core/exhaustive.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"

namespace specqp::servebench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

QueryResponse Run(Engine& engine, const Query& query, size_t k,
                  Strategy strategy) {
  QueryRequest request = QueryRequest::FromQuery(query, k, strategy);
  request.admission = QueryRequest::Admission::kImmediate;
  return engine.Submit(std::move(request)).get();
}

int RunTests() {
  const XkgDataset data = GenerateXkg(XkgConfig());
  XkgWorkloadConfig workload_config;
  workload_config.queries_per_size = 2;
  const std::vector<Query> workload = MakeXkgWorkload(data, workload_config);
  Expect(!workload.empty(), "the workload generator made queries");
  if (workload.empty()) return 1;

  Engine engine(&data.store, &data.rules);
  ExhaustiveEvaluator oracle(&data.store, &data.rules);
  const size_t k = 10;
  size_t altered_cases = 0;
  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const Query& query = workload[qi];
    QueryTruth truth(oracle.Evaluate(query), query.num_patterns());
    const std::string tag = "query " + std::to_string(qi) + ": ";
    const std::vector<size_t> all = AllPatterns(query.num_patterns());

    const QueryResponse spec = Run(engine, query, k, Strategy::kSpecQp);
    const QueryResponse trinit = Run(engine, query, k, Strategy::kTrinit);
    Expect(truth.Check(spec, spec.plan.singletons, k).empty(),
           tag + "Spec-QP response passes under its own plan");
    Expect(truth.Check(trinit, all, k).empty(),
           tag + "TriniT response equals the true top-k");
    Expect(truth.Precision(trinit.rows, k) == 1.0,
           tag + "TriniT precision is 1");
    if (spec.rows.size() < 2) continue;
    ++altered_cases;
    const size_t last = spec.rows.size() - 1;

    QueryResponse bad = spec;
    bad.rows[last].score -= 0.25;
    Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
           tag + "a lowered score fails");

    bad = spec;
    bad.rows[0].score += 1e-6;
    Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
           tag + "a slightly raised top score fails");

    bad = spec;
    bad.rows[last].bindings[0] = kInvalidTermId;
    Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
           tag + "a binding that is no answer fails");

    bad = spec;
    bad.rows[last].bindings = bad.rows[0].bindings;
    Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
           tag + "a repeated binding fails");

    bad = spec;
    std::swap(bad.rows[0].bindings, bad.rows[last].bindings);
    if (bad.rows[0].score != bad.rows[last].score) {
      Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
             tag + "swapped bindings fail");
    }

    bad = spec;
    std::swap(bad.rows[0], bad.rows[last]);
    if (bad.rows[0].score != bad.rows[last].score) {
      Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
             tag + "rows out of score order fail");
    }

    bad = spec;
    bad.rows.pop_back();
    Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
           tag + "a missing row fails");

    bad = spec;
    bad.status = Status::Internal("injected");
    Expect(!truth.Check(bad, spec.plan.singletons, k).empty(),
           tag + "a failed status fails");

    bad = spec;
    Expect(!truth.Check(bad, {query.num_patterns()}, k).empty(),
           tag + "a plan relaxing a pattern the query lacks fails");
  }
  Expect(altered_cases > 0, "some query had two or more rows to alter");
  std::printf("%s\n", g_failures == 0 ? "all checks behave" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace specqp::servebench

int main() { return specqp::servebench::RunTests(); }
