// servebench: one benchmark of the serving path (see README.md).
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --out <dir> [--git-sha <sha>]
//              [--xkg-seed 42] [--twitter-seed 4217]
//              [--xkg-query-seed 71] [--twitter-query-seed 73]
//
// Each run generates its dataset and query set, saves it as an SQPSTOR3
// store, serves it memory-mapped through Engine::OpenFromPath, drives the
// workload's closed-loop client through Engine::Submit with SPARQL text
// requests, and checks every response against the exhaustive oracle. The
// last line of stdout is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.h"
#include "core/engine.h"
#include "core/exhaustive.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "query/parser.h"
#include "rdf/store_io.h"
#include "relax/rules_io.h"
#include "trace.h"
#include "util/random.h"

namespace specqp::servebench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kTopKs[] = {10, 15, 20};
// p95 needs at least ten samples beyond it.
constexpr size_t kMinRequests = 200;
// Set-up runs this many times; setup_s is the median.
constexpr int kSetupReps = 3;
// Rounds over the query texts that time the parser (query.parse_us).
constexpr int kParseRounds = 20;
// Below twitter-heavy's working set, so the posting-list cache evicts and
// rebuilds lists.
constexpr size_t kTwitterCacheBudget = size_t{4} << 20;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// --- workloads ---------------------------------------------------------------

enum class Dataset { kXkg, kTwitter };

// Every workload has one closed-loop client sending whole shuffled passes
// over the query set, with k cycling.
struct WorkloadSpec {
  std::string name;
  Dataset dataset;
  int threads;
  QueryRequest::Admission admission;
  size_t cache_budget_bytes;  // 0 = unbounded
};

// nproc, capped at 4 so the workloads stay the same on larger hosts.
size_t HostThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  using Admission = QueryRequest::Admission;
  if (name == "xkg-interactive") {
    return WorkloadSpec{name, Dataset::kXkg, 1, Admission::kWindow, 0};
  }
  if (name == "twitter-heavy") {
    return WorkloadSpec{name, Dataset::kTwitter,
                        static_cast<int>(HostThreads()), Admission::kImmediate,
                        kTwitterCacheBudget};
  }
  return std::nullopt;
}

// --- flags -------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  uint64_t xkg_seed = 42;
  uint64_t twitter_seed = 4217;
  uint64_t xkg_query_seed = 71;
  uint64_t twitter_query_seed = 73;
};

bool ParseUint(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

// Returns an error message, or "" when every flag parsed.
std::string ParseFlags(int argc, char** argv, Flags* flags) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_out = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string name = argv[i];
    if (i + 1 >= argc) return "flag " + name + " needs a value";
    const std::string value = argv[i + 1];
    uint64_t n = 0;
    const bool is_uint = ParseUint(value, &n);
    auto need_uint = [&](uint64_t* out) -> std::string {
      if (!is_uint) return name + " takes a whole number, got '" + value + "'";
      *out = n;
      return "";
    };
    std::string error;
    if (name == "--workload") {
      flags->workload = value;
      have_workload = true;
    } else if (name == "--seed") {
      error = need_uint(&flags->seed);
      have_seed = true;
    } else if (name == "--seconds") {
      if (!is_uint || n < 1 || n > 600) return "--seconds takes 1..600";
      flags->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (name == "--trace") {
      if (value != "0" && value != "1") return "--trace takes 0 or 1";
      flags->trace = value == "1";
      have_trace = true;
    } else if (name == "--out") {
      flags->out_dir = value;
      have_out = true;
    } else if (name == "--git-sha") {
      flags->git_sha = value;
    } else if (name == "--xkg-seed") {
      error = need_uint(&flags->xkg_seed);
    } else if (name == "--twitter-seed") {
      error = need_uint(&flags->twitter_seed);
    } else if (name == "--xkg-query-seed") {
      error = need_uint(&flags->xkg_query_seed);
    } else if (name == "--twitter-query-seed") {
      error = need_uint(&flags->twitter_query_seed);
    } else {
      return "unknown flag " + name;
    }
    if (!error.empty()) return error;
  }
  if (!(have_workload && have_seed && have_seconds && have_trace && have_out)) {
    return "--workload, --seed, --seconds, --trace and --out are required";
  }
  return "";
}

// --- set-up: generate, save, open, warm ----------------------------------------

// A store served from disk with its relaxation rules and query texts. Held
// behind a unique_ptr: the engine keeps a pointer to `rules`.
struct Served {
  RelaxationIndex rules;
  Engine::Opened opened;
  std::vector<std::string> texts;
  std::vector<Query> queries;  // texts parsed against the served dictionary
  uint64_t store_bytes = 0;

  Engine& engine() { return *opened.engine; }
};

struct SetupTimes {
  double generate_s = 0.0;
  double save_s = 0.0;
  double open_ms = 0.0;
  double warm_ms = 0.0;
  double total_s = 0.0;
};

template <typename Data>
Status SaveDataset(const Data& data, const std::vector<Query>& queries,
                   const std::string& store_path,
                   const std::string& rules_path,
                   const std::string& texts_path) {
  std::ofstream texts(texts_path, std::ios::trunc);
  for (const Query& query : queries) {
    const std::string text = query.ToString(data.store.dict());
    if (text.find('\n') != std::string::npos) {
      return Status::Internal("a query text spans lines");
    }
    texts << text << '\n';
  }
  texts.close();
  if (!texts) return Status::IoError("cannot write " + texts_path);
  Status status = SaveStore(data.store, store_path);
  if (!status.ok()) return status;
  return SaveRules(data.rules, rules_path);
}

// Generates the dataset and its query set, saves them, and writes the
// generate and save times (seconds) to `fd`. Runs in a child process, so the
// generator's memory does not count towards the serving process's peak RSS.
// Returns the child's exit code.
int GenerateAndSave(Dataset dataset, const Flags& flags,
                    const std::string& store_path,
                    const std::string& rules_path,
                    const std::string& texts_path, int fd) {
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1;
  Status saved;
  if (dataset == Dataset::kXkg) {
    XkgConfig config;
    config.seed = flags.xkg_seed;
    XkgDataset data = GenerateXkg(config);
    XkgWorkloadConfig workload;
    workload.seed = flags.xkg_query_seed;
    workload.queries_per_size = 22;
    workload.min_relaxations = 10;
    const std::vector<Query> queries = MakeXkgWorkload(data, workload);
    t1 = Clock::now();
    saved = SaveDataset(data, queries, store_path, rules_path, texts_path);
  } else {
    TwitterConfig config;
    config.seed = flags.twitter_seed;
    TwitterDataset data = GenerateTwitter(config);
    TwitterWorkloadConfig workload;
    workload.seed = flags.twitter_query_seed;
    workload.queries_per_size = 25;
    workload.min_relaxations = 5;
    const std::vector<Query> queries = MakeTwitterWorkload(data, workload);
    t1 = Clock::now();
    saved = SaveDataset(data, queries, store_path, rules_path, texts_path);
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "servebench: %s\n", saved.ToString().c_str());
    return 1;
  }
  const double times[2] = {Ms(t1 - t0) / 1e3, Ms(Clock::now() - t1) / 1e3};
  return write(fd, times, sizeof(times)) == sizeof(times) ? 0 : 1;
}

// Records [start, end) as a span outside any request; `id` 0 takes a new id.
void RecordSpan(Tracer& tracer, uint64_t parent, const char* name,
                const char* layer, Clock::time_point start,
                Clock::time_point end, uint64_t id = 0) {
  tracer.Record({id != 0 ? id : tracer.NewId(), parent, 0, name, layer,
                 tracer.Micros(start), tracer.Micros(end), false});
}

// Called with no engine alive, so the process has no other thread to fork.
Result<std::unique_ptr<Served>> SetUp(const WorkloadSpec& spec,
                                      const Flags& flags, Tracer& tracer,
                                      SetupTimes* times) {
  const std::string store_path = flags.out_dir + "/store.sqps";
  const std::string rules_path = flags.out_dir + "/rules.sqpr";
  const std::string texts_path = flags.out_dir + "/queries.txt";
  auto served = std::make_unique<Served>();
  const uint64_t root = tracer.NewId();
  int fds[2];
  if (pipe(fds) != 0) return Status::IoError("pipe failed");
  const Clock::time_point t0 = Clock::now();
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    _exit(GenerateAndSave(spec.dataset, flags, store_path, rules_path,
                          texts_path, fds[1]));
  }
  close(fds[1]);
  double child_times[2] = {};
  const ssize_t got =
      child < 0 ? -1 : read(fds[0], child_times, sizeof(child_times));
  close(fds[0]);
  int child_status = 0;
  if (child < 0) return Status::Internal("fork failed");
  while (waitpid(child, &child_status, 0) < 0 && errno == EINTR) {
  }
  const Clock::time_point t2 = Clock::now();
  if (got != sizeof(child_times) || !WIFEXITED(child_status) ||
      WEXITSTATUS(child_status) != 0) {
    return Status::Internal("generating or saving the dataset failed");
  }
  std::ifstream texts(texts_path);
  for (std::string line; std::getline(texts, line);) {
    served->texts.push_back(std::move(line));
  }
  if (served->texts.empty()) return Status::IoError("no queries in " + texts_path);

  Result<RelaxationIndex> rules = LoadRules(rules_path);
  if (!rules.ok()) return rules.status();
  served->rules = std::move(rules).value();
  EngineOptions options;
  options.num_threads = spec.threads;
  options.cache_budget_bytes = spec.cache_budget_bytes;
  const Clock::time_point t3 = Clock::now();
  Result<Engine::Opened> opened =
      Engine::OpenFromPath(store_path, &served->rules, options);
  if (!opened.ok()) return opened.status();
  served->opened = std::move(opened).value();
  const Clock::time_point t4 = Clock::now();

  for (const std::string& text : served->texts) {
    Result<Query> query = ParseQuery(text, served->opened.store().dict());
    if (!query.ok()) return query.status();
    served->queries.push_back(std::move(query).value());
  }
  const Clock::time_point t5 = Clock::now();
  for (const Query& query : served->queries) served->engine().Warm(query);
  const Clock::time_point t6 = Clock::now();

  std::error_code ec;
  served->store_bytes = std::filesystem::file_size(store_path, ec);
  if (ec) return Status::IoError("cannot stat " + store_path);

  times->generate_s = child_times[0];
  times->save_s = child_times[1];
  times->open_ms = Ms(t4 - t3);
  times->warm_ms = Ms(t6 - t5);
  times->total_s = Ms(t6 - t0) / 1e3;
  auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  RecordSpan(tracer, root, "datasets.generate", "datasets", t0,
             t0 + seconds(child_times[0]));
  RecordSpan(tracer, root, "rdf.save", "rdf", t2 - seconds(child_times[1]), t2);
  RecordSpan(tracer, root, "rdf.open", "rdf", t3, t4);
  RecordSpan(tracer, root, "rdf.warm", "rdf", t5, t6);
  RecordSpan(tracer, 0, "setup", "bench", t0, t6, root);
  return served;
}

// --- timed phase -------------------------------------------------------------

// What the checks and metrics need from one response. Rows go to flat
// buffers and the QueryResponse is dropped at once: holding
// thousands of live responses made later requests progressively slower.
struct Record {
  size_t query = 0;
  size_t k = 0;
  double latency_ms = 0.0;  // Submit call to response ready
  double done_s = 0.0;      // completion, seconds into the phase
  Status status;
  ExecStats stats;
  double admission_ms = 0.0;
  uint64_t relaxed_mask = 0;  // the plan's singletons
  bool relaxed_overflow = false;  // a singleton index >= 64
  size_t first_row = 0;      // into RowStore::scores
  size_t first_binding = 0;  // into RowStore::bindings
  size_t num_rows = 0;
  size_t width = 0;  // bindings per row
};

struct RowStore {
  std::vector<double> scores;
  std::vector<TermId> bindings;  // num_rows * width per record
};

void Keep(QueryResponse response, RowStore* rows, Record* record) {
  record->status = std::move(response.status);
  record->stats = response.stats;
  record->admission_ms = response.admission_ms;
  for (size_t i : response.plan.singletons) {
    if (i >= 64) {
      record->relaxed_overflow = true;
    } else {
      record->relaxed_mask |= uint64_t{1} << i;
    }
  }
  record->first_row = rows->scores.size();
  record->first_binding = rows->bindings.size();
  record->num_rows = response.rows.size();
  record->width =
      response.rows.empty() ? 0 : response.rows.front().bindings.size();
  for (const ScoredRow& row : response.rows) {
    if (row.bindings.size() != record->width) {
      record->status = Status::Internal("rows of different widths");
      record->num_rows = 0;
      return;
    }
  }
  for (const ScoredRow& row : response.rows) {
    rows->scores.push_back(row.score);
    rows->bindings.insert(rows->bindings.end(), row.bindings.begin(),
                          row.bindings.end());
  }
}

// The response as the checks read it: status, plan singletons and rows.
QueryResponse Rebuild(const Record& record, const RowStore& rows,
                      size_t num_patterns) {
  QueryResponse response;
  response.status = record.status;
  for (size_t i = 0; i < 64; ++i) {
    if ((record.relaxed_mask >> i) & 1) response.plan.singletons.push_back(i);
  }
  if (record.relaxed_overflow) response.plan.singletons.push_back(num_patterns);
  for (size_t r = 0; r < record.num_rows; ++r) {
    ScoredRow row;
    row.score = rows.scores[record.first_row + r];
    const auto first =
        rows.bindings.begin() +
        static_cast<ptrdiff_t>(record.first_binding + r * record.width);
    row.bindings.assign(first, first + static_cast<ptrdiff_t>(record.width));
    response.rows.push_back(std::move(row));
  }
  return response;
}

struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t windows = 0;
  uint64_t window_requests = 0;
  uint64_t shared_scan_hits = 0;
};

Counters ReadCounters(Served& served, const WorkloadSpec& spec) {
  Counters c;
  PostingListCache& cache = served.engine().postings();
  c.cache_hits = cache.hits();
  c.cache_misses = cache.misses();
  c.cache_evictions = cache.evictions();
  // admission() starts the dispatcher; immediate workloads never touch it.
  if (spec.admission == QueryRequest::Admission::kWindow) {
    const AdmissionController::Stats stats = served.engine().admission().stats();
    c.windows = stats.windows_dispatched;
    c.window_requests = stats.submitted;
    c.shared_scan_hits = stats.shared_scan_hits;
  }
  return c;
}

struct Phase {
  std::vector<Record> records;
  RowStore rows;
  double wall_s = 0.0;
  Counters delta;
  double cache_resident_mb = 0.0;
};

// Sends one request and waits for its response. Traced requests place the
// response's admission, planning and execution times inside the Submit span.
Record Issue(Served& served, const WorkloadSpec& spec, size_t q, size_t k,
             Tracer* tracer, RowStore* rows) {
  QueryRequest request =
      QueryRequest::FromText(served.texts[q], k, Strategy::kSpecQp);
  request.admission = spec.admission;
  Record record;
  record.query = q;
  record.k = k;
  if (tracer == nullptr) {
    const Clock::time_point s0 = Clock::now();
    QueryResponse response = served.engine().Submit(std::move(request)).get();
    record.latency_ms = Ms(Clock::now() - s0);
    Keep(std::move(response), rows, &record);
    return record;
  }

  const uint64_t root = tracer->NewId();
  const Clock::time_point s0 = Clock::now();
  QueryResponse response = served.engine().Submit(std::move(request)).get();
  const Clock::time_point s1 = Clock::now();
  record.latency_ms = Ms(s1 - s0);
  Keep(std::move(response), rows, &record);

  auto add = [&](uint64_t id, uint64_t parent, const char* name,
                 const char* layer, double start_us, double end_us,
                 bool derived) {
    tracer->Record({id, parent, root, name, layer, start_us, end_us, derived});
  };
  const uint64_t submit = tracer->NewId();
  const double submit_start = tracer->Micros(s0);
  const double submit_end = tracer->Micros(s1);
  add(submit, root, "engine.submit", "core.engine", submit_start, submit_end,
      false);
  double at = submit_start;
  auto derive = [&](const char* name, const char* layer, double ms) {
    const double end = std::min(submit_end, at + ms * 1e3);
    if (end > at) add(tracer->NewId(), submit, name, layer, at, end, true);
    at = std::max(at, end);
  };
  derive("admission.wait", "core.admission", record.admission_ms);
  derive("planner.plan", "core.planner", record.stats.plan_ms);
  derive("topk.exec", "topk", record.stats.exec_ms);
  add(root, 0, "request", "bench", submit_start, submit_end, false);
  return record;
}

Phase RunPhase(Served& served, const WorkloadSpec& spec, const Flags& flags,
               Tracer* tracer) {
  Phase phase;
  phase.records.reserve(4096);
  phase.rows.scores.reserve(size_t{1} << 15);
  phase.rows.bindings.reserve(size_t{1} << 16);
  const size_t n = served.texts.size();
  const Counters before = ReadCounters(served, spec);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(flags.seconds));

  // Whole passes only, so every run weighs every query equally. Pass p sends
  // query q with k = kTopKs[(q + p) % 3]: three passes cover every (query, k)
  // pair once.
  Rng rng(flags.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t pass = 0;
       Clock::now() < deadline || phase.records.size() < kMinRequests;
       ++pass) {
    rng.Shuffle(&order);
    for (size_t q : order) {
      phase.records.push_back(
          Issue(served, spec, q, kTopKs[(q + pass) % 3], tracer, &phase.rows));
      phase.records.back().done_s = Ms(Clock::now() - start) / 1e3;
    }
  }
  phase.wall_s = Ms(Clock::now() - start) / 1e3;
  const Counters after = ReadCounters(served, spec);
  phase.delta.cache_hits = after.cache_hits - before.cache_hits;
  phase.delta.cache_misses = after.cache_misses - before.cache_misses;
  phase.delta.cache_evictions = after.cache_evictions - before.cache_evictions;
  phase.delta.windows = after.windows - before.windows;
  phase.delta.window_requests = after.window_requests - before.window_requests;
  phase.delta.shared_scan_hits =
      after.shared_scan_hits - before.shared_scan_hits;
  phase.cache_resident_mb =
      static_cast<double>(served.engine().postings().bytes()) / 1e6;
  return phase;
}

// --- answer checks -------------------------------------------------------------

struct Verdicts {
  size_t failed = 0;
  std::vector<double> precision;        // per record
  std::vector<double> prediction_exact;  // per record, 0 or 1
  double oracle_ms = 0.0;                // mean per distinct query
};

// Runs after the timed phases, when no request is in flight: the oracle per
// distinct query, one TriniT run per distinct (query, k), then every
// response's checks.
Verdicts CheckAll(Served& served, const std::vector<const Phase*>& phases,
                  Tracer& tracer) {
  Verdicts v;
  ExhaustiveEvaluator oracle(&served.opened.store(), &served.rules);
  std::map<size_t, QueryTruth> truths;
  std::map<std::pair<size_t, size_t>, std::string> trinit;
  for (const Phase* phase : phases) {
    for (const Record& r : phase->records) {
      if (truths.count(r.query) == 0) {
        const Query& query = served.queries[r.query];
        const Clock::time_point t0 = Clock::now();
        ExhaustiveEvaluator::EvalResult truth = oracle.Evaluate(query);
        const Clock::time_point t1 = Clock::now();
        RecordSpan(tracer, 0, "oracle.evaluate", "core.exhaustive", t0, t1);
        v.oracle_ms += Ms(t1 - t0);
        truths.emplace(r.query,
                       QueryTruth(std::move(truth), query.num_patterns()));
      }
      const auto key = std::make_pair(r.query, r.k);
      if (trinit.count(key) == 0) {
        QueryRequest request = QueryRequest::FromText(
            served.texts[r.query], r.k, Strategy::kTrinit);
        request.admission = QueryRequest::Admission::kImmediate;
        const Clock::time_point t0 = Clock::now();
        const QueryResponse response =
            served.engine().Submit(std::move(request)).get();
        RecordSpan(tracer, 0, "engine.submit.trinit", "core.engine", t0,
                   Clock::now());
        QueryTruth& truth = truths.at(r.query);
        trinit[key] =
            truth.Check(response, AllPatterns(truth.num_patterns()), r.k);
      }
    }
  }
  v.oracle_ms /= static_cast<double>(std::max<size_t>(1, truths.size()));

  for (const Phase* phase : phases) {
    for (const Record& r : phase->records) {
      QueryTruth& truth = truths.at(r.query);
      const QueryResponse response =
          Rebuild(r, phase->rows, truth.num_patterns());
      std::string why = truth.Check(response, response.plan.singletons, r.k);
      if (why.empty() && !trinit.at({r.query, r.k}).empty()) {
        why = "TriniT spot run: " + trinit.at({r.query, r.k});
      }
      if (!why.empty()) {
        if (v.failed < 5) {
          std::fprintf(stderr, "servebench: FAILED query %zu k=%zu: %s\n",
                       r.query, r.k, why.c_str());
        }
        ++v.failed;
        continue;
      }
      v.precision.push_back(truth.Precision(response.rows, r.k));
      v.prediction_exact.push_back(
          truth.PredictionExact(response.plan, r.k) ? 1.0 : 0.0);
    }
  }
  return v;
}

// --- statistics and output ---------------------------------------------------

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

template <typename F>
double MeanOver(const Phase& phase, F f) {
  if (phase.records.empty()) return 0.0;
  double sum = 0.0;
  for (const Record& r : phase.records) sum += static_cast<double>(f(r));
  return sum / static_cast<double>(phase.records.size());
}

double PerRequest(uint64_t count, const Phase& phase) {
  return static_cast<double>(count) /
         static_cast<double>(std::max<size_t>(1, phase.records.size()));
}

std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> out;
  out.reserve(phase.records.size());
  for (const Record& r : phase.records) out.push_back(r.latency_ms);
  return out;
}

double Throughput(const Phase& phase) {
  return static_cast<double>(phase.records.size()) / phase.wall_s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

int Run(int argc, char** argv) {
  Flags flags;
  if (const std::string error = ParseFlags(argc, argv, &flags); !error.empty()) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  const std::optional<WorkloadSpec> found = FindWorkload(flags.workload);
  if (!found) {
    std::fprintf(stderr,
                 "servebench: unknown workload '%s' (xkg-interactive, "
                 "twitter-heavy)\n",
                 flags.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  std::error_code ec;
  std::filesystem::create_directories(flags.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s\n", flags.out_dir.c_str());
    return 2;
  }

  Tracer tracer(flags.trace);
  std::unique_ptr<Served> served;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();  // one store and engine at a time
    SetupTimes times;
    Result<std::unique_ptr<Served>> result = SetUp(spec, flags, tracer, &times);
    if (!result.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   result.status().ToString().c_str());
      return 3;
    }
    served = std::move(result).value();
    setups.push_back(times);
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return Median(std::move(values));
  };

  // One untimed request per query at the largest k, through the same path,
  // so state built lazily on first use exists before timing starts.
  for (const std::string& text : served->texts) {
    QueryRequest request = QueryRequest::FromText(text, kTopKs[2]);
    request.admission = spec.admission;
    (void)served->engine().Submit(std::move(request)).get();
  }

  // The untraced phase always runs; a traced run repeats the same request
  // sequence with spans on, and the difference is the tracing overhead.
  const Phase plain = RunPhase(*served, spec, flags, nullptr);
  // Read before the traced phase and the checks: the figure covers opening,
  // warming and serving the store, not the oracle.
  const double peak_rss_mb = PeakRssMb();
  std::optional<Phase> traced;
  if (flags.trace) traced = RunPhase(*served, spec, flags, &tracer);

  // Explain touches the unlocked planner memos, so it runs only now, with
  // no request in flight. The parser is timed here too, in rounds over the
  // query texts: a parse timed between requests mostly measures the caches
  // the previous request left cold (see README.md).
  std::vector<double> explain_ms;
  double parse_us = 0.0;
  if (flags.trace) {
    const Clock::time_point p0 = Clock::now();
    for (int round = 0; round < kParseRounds; ++round) {
      for (const std::string& text : served->texts) {
        // SetUp parsed every text already, so this cannot fail.
        if (!ParseQuery(text, served->opened.store().dict()).ok()) return 3;
      }
    }
    const Clock::time_point p1 = Clock::now();
    RecordSpan(tracer, 0, "query.parse", "query", p0, p1);
    parse_us = Ms(p1 - p0) * 1e3 /
               static_cast<double>(kParseRounds * served->texts.size());
    for (const std::string& text : served->texts) {
      const Clock::time_point t0 = Clock::now();
      const QueryResponse plan =
          served->engine().Explain(QueryRequest::FromText(text, 10));
      const Clock::time_point t1 = Clock::now();
      if (!plan.ok()) {
        std::fprintf(stderr, "servebench: Explain failed: %s\n",
                     plan.status.ToString().c_str());
      }
      RecordSpan(tracer, 0, "engine.explain", "core.planner", t0, t1);
      explain_ms.push_back(Ms(t1 - t0));
    }
  }

  std::vector<const Phase*> phases = {&plain};
  if (traced) phases.push_back(&*traced);
  const Verdicts verdicts = CheckAll(*served, phases, tracer);
  size_t attempted = 0;
  for (const Phase* phase : phases) attempted += phase->records.size();
  const bool correct = verdicts.failed == 0;

  std::vector<Metric> metrics;
  if (!flags.trace) {
    const std::vector<double> latencies = Latencies(plain);
    metrics = {
        {"latency_p50_ms", Quantile(latencies, 0.50), "ms"},
        {"latency_p95_ms", Quantile(latencies, 0.95), "ms"},
        {"throughput_qps", Throughput(plain), "req/s"},
        {"precision_at_k", Mean(verdicts.precision), "ratio"},
        {"answer_objects_per_query",
         MeanOver(plain, [](const Record& r) { return r.stats.answer_objects; }),
         "count"},
        {"setup_s", setup_median(&SetupTimes::total_s), "s"},
        {"store_mb", static_cast<double>(served->store_bytes) / 1e6, "MB"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const Phase& t = *traced;
    auto stat = [&](auto field) {
      return MeanOver(t, [&](const Record& r) { return r.stats.*field; });
    };
    const std::vector<Span>& spans = tracer.spans();
    // Self time per request of the layers on the request path.
    std::vector<Span> request_spans;
    for (const Span& s : spans) {
      if (s.request != 0) request_spans.push_back(s);
    }
    const std::map<std::string, double> request_self = SelfTimeByLayerMs(request_spans);
    auto self_per_request = [&](const char* layer) {
      auto it = request_self.find(layer);
      const double ms = it == request_self.end() ? 0.0 : it->second;
      return ms / static_cast<double>(std::max<size_t>(1, t.records.size()));
    };
    const double p50_plain = Quantile(Latencies(plain), 0.5);
    const double p50_traced = Quantile(Latencies(t), 0.5);
    const bool windowed = spec.admission == QueryRequest::Admission::kWindow;
    metrics = {
        {"query.parse_us", parse_us, "us"},
        {"admission.wait_ms", MeanOver(t, [](const Record& r) { return r.admission_ms; }), "ms"},
        {"admission.window_size",
         windowed && t.delta.windows > 0
             ? static_cast<double>(t.delta.window_requests) / static_cast<double>(t.delta.windows)
             : 0.0,
         "count"},
        {"batch.shared_scan_hits", PerRequest(t.delta.shared_scan_hits, t), "count"},
        {"planner.plan_ms", stat(&ExecStats::plan_ms), "ms"},
        {"planner.explain_ms", Mean(explain_ms), "ms"},
        {"planner.patterns_relaxed",
         MeanOver(t, [](const Record& r) { return std::popcount(r.relaxed_mask); }),
         "count"},
        {"planner.prediction_exact", Mean(verdicts.prediction_exact), "ratio"},
        {"rdf.save_s", setup_median(&SetupTimes::save_s), "s"},
        {"rdf.open_ms", setup_median(&SetupTimes::open_ms), "ms"},
        {"rdf.warm_ms", setup_median(&SetupTimes::warm_ms), "ms"},
        {"rdf.cache_hits", PerRequest(t.delta.cache_hits, t), "count"},
        {"rdf.cache_misses", PerRequest(t.delta.cache_misses, t), "count"},
        {"rdf.cache_evictions", PerRequest(t.delta.cache_evictions, t), "count"},
        {"rdf.cache_resident_mb", t.cache_resident_mb, "MB"},
        {"rdf.blocks_decoded", stat(&ExecStats::blocks_decoded), "count"},
        {"rdf.blocks_skipped", stat(&ExecStats::blocks_skipped), "count"},
        {"topk.exec_ms", stat(&ExecStats::exec_ms), "ms"},
        {"topk.scan_rows", stat(&ExecStats::scan_rows), "count"},
        {"topk.merge_rows", stat(&ExecStats::merge_rows), "count"},
        {"topk.join_results", stat(&ExecStats::join_results), "count"},
        {"topk.join_hash_probes", stat(&ExecStats::join_hash_probes), "count"},
        {"topk.parallel_partitions", stat(&ExecStats::parallel_partitions), "count"},
        {"topk.parallel_refill_rounds", stat(&ExecStats::parallel_refill_rounds), "count"},
        {"datasets.generate_s", setup_median(&SetupTimes::generate_s), "s"},
        {"oracle.evaluate_ms", verdicts.oracle_ms, "ms"},
        {"self.core.engine_ms", self_per_request("core.engine"), "ms"},
        {"self.core.admission_ms", self_per_request("core.admission"), "ms"},
        {"self.core.planner_ms", self_per_request("core.planner"), "ms"},
        {"self.topk_ms", self_per_request("topk"), "ms"},
        {"trace.overhead_p50_pct", 100.0 * (p50_traced / p50_plain - 1.0), "%"},
        {"trace.overhead_qps_pct", 100.0 * (Throughput(plain) / Throughput(t) - 1.0), "%"},
        {"trace.spans", static_cast<double>(spans.size()), "count"},
    };
  }

  // Human-readable report, run record and (traced) span file.
  const std::string stem = flags.out_dir + "/" + spec.name + "_seed" +
                           std::to_string(flags.seed) + "_trace" +
                           (flags.trace ? "1" : "0");
  std::printf("servebench %s: host nproc=%u cpu=\"%s\" git_sha=%s\n",
              spec.name.c_str(), std::thread::hardware_concurrency(),
              CpuModel().c_str(), flags.git_sha.c_str());
  std::printf("seeds: run=%llu xkg=%llu twitter=%llu xkg_queries=%llu "
              "twitter_queries=%llu; clients=1 threads=%d\n",
              static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(flags.xkg_seed),
              static_cast<unsigned long long>(flags.twitter_seed),
              static_cast<unsigned long long>(flags.xkg_query_seed),
              static_cast<unsigned long long>(flags.twitter_query_seed),
              spec.threads);
  std::printf("requests: attempted=%zu failed=%zu\n", attempted, verdicts.failed);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (std::FILE* f = std::fopen((stem + "_requests.tsv").c_str(), "w")) {
    std::fprintf(f, "query\tk\tlatency_ms\tdone_s\tadmission_ms\n");
    for (const Record& r : plain.records) {
      std::fprintf(f, "%zu\t%zu\t%.4f\t%.4f\t%.4f\n", r.query, r.k,
                   r.latency_ms, r.done_s, r.admission_ms);
    }
    std::fclose(f);
  }
  if (flags.trace) {
    const std::map<std::string, double> self = SelfTimeByLayerMs(tracer.spans());
    std::FILE* table = std::fopen((stem + "_layers.tsv").c_str(), "w");
    std::printf("layer self time over the whole traced run:\n");
    for (const auto& [layer, ms] : self) {
      std::printf("  %-18s %12.3f ms\n", layer.c_str(), ms);
      if (table != nullptr) std::fprintf(table, "%s\t%.3f\n", layer.c_str(), ms);
    }
    if (table != nullptr) std::fclose(table);
    if (!tracer.WriteJsonLines(stem + "_spans.jsonl")) {
      std::fprintf(stderr, "servebench: cannot write %s_spans.jsonl\n", stem.c_str());
    }
  }
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(verdicts.failed) +
                             ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w"); f != nullptr) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
                 "\"git_sha\": \"%s\", \"seed\": %llu, \"xkg_seed\": %llu, "
                 "\"twitter_seed\": %llu, \"xkg_query_seed\": %llu, "
                 "\"twitter_query_seed\": %llu, \"result\": %s}\n",
                 spec.name.c_str(), std::thread::hardware_concurrency(),
                 CpuModel().c_str(), flags.git_sha.c_str(),
                 static_cast<unsigned long long>(flags.seed),
                 static_cast<unsigned long long>(flags.xkg_seed),
                 static_cast<unsigned long long>(flags.twitter_seed),
                 static_cast<unsigned long long>(flags.xkg_query_seed),
                 static_cast<unsigned long long>(flags.twitter_query_seed),
                 result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace specqp::servebench

int main(int argc, char** argv) { return specqp::servebench::Run(argc, argv); }
