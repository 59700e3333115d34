#ifndef SPECQP_SERVEBENCH_TRACE_H_
#define SPECQP_SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specqp::servebench {

// One timed interval of the benchmark's own calls into the library. Spans of
// one request share `request` (0 = not part of a request: set-up, oracle,
// Explain). `parent` is 0 for a root span. A `derived` span was not timed
// directly: it is placed inside its parent from a duration the library
// reports (QueryResponse::admission_ms, ExecStats::plan_ms/exec_ms).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  std::string layer;  // the src/ module the call enters
  double start_us = 0.0;
  double end_us = 0.0;
  bool derived = false;
};

// In-memory span recorder. Disabled tracers record nothing and their clock
// reads are still cheap; spans are written out only when the run ends.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_++; }
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  void Record(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per span and line. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// A span's self time is its duration minus the part of it that its child
// spans cover (children clipped to the parent, overlaps counted once).
// Returns the summed self time in milliseconds per layer.
std::map<std::string, double> SelfTimeByLayerMs(const std::vector<Span>& spans);

}  // namespace specqp::servebench

#endif  // SPECQP_SERVEBENCH_TRACE_H_
