// Timing, spans, and metric output for the benchmark.
#ifndef GDLOG_PERFBENCH_REPORT_H_
#define GDLOG_PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds since the first call in this process.
uint64_t NowNs();

/// Median and nearest-rank quantile of a sample (0 for an empty one).
double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

/// The benchmark's own spans: one per call it makes into a layer, kept
/// in memory and written out as a Chrome trace when the run ends.
class SpanLog {
 public:
  /// Opens a span under the innermost open span; returns its id.
  int Begin(std::string name, uint64_t start_ns);
  void End(int id, uint64_t end_ns);
  size_t size() const { return spans_.size(); }
  /// Chrome trace_event JSON; each event's args carry its id, its
  /// parent's id (-1 for a root) and its self time in microseconds.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t start_ns = 0, end_ns = 0;
    int parent = -1;
    uint64_t child_ns = 0;  // time covered by direct children
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `fn`, records it as span `name` when `log` is set, and returns
/// its wall time in seconds.
template <typename F>
double Timed(SpanLog* log, const char* name, F&& fn) {
  const uint64_t t0 = NowNs();
  const int id = log != nullptr ? log->Begin(name, t0) : -1;
  fn();
  const uint64_t t1 = NowNs();
  if (log != nullptr) log->End(id, t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Named metrics with units, printed as a table and as the final JSON
/// line the benchmark contract asks for.
class Report {
 public:
  /// `json` false keeps a metric in the table only (context such as
  /// sample counts, numerators and denominators).
  void Add(std::string name, double value, std::string unit,
           std::string note = "", bool json = true);
  void PrintTable(FILE* out) const;
  std::string JsonLine(bool correct, uint64_t attempted,
                       uint64_t failed) const;

 private:
  struct Metric {
    std::string name, unit, note;
    double value = 0;
    bool json = true;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // GDLOG_PERFBENCH_REPORT_H_
