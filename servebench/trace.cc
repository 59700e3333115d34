#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace specqp::servebench {

void Tracer::Record(Span span) {
  if (enabled_) spans_.push_back(std::move(span));
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"layer\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"derived\":%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.layer.c_str(), s.start_us, s.end_us,
                 s.derived ? "true" : "false");
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::map<std::string, double> SelfTimeByLayerMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double reach = s.start_us;  // end of the covered prefix so far
      for (const auto& [start, end] : kids) {
        const double lo = std::max(start, reach);
        const double hi = std::min(end, s.end_us);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(end, s.end_us));
      }
    }
    self_ms[s.layer] += std::max(0.0, s.end_us - s.start_us - covered) / 1e3;
  }
  return self_ms;
}

}  // namespace specqp::servebench
