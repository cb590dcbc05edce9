#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

int SpanLog::Begin(std::string name, uint64_t start_ns) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id, uint64_t end_ns) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = end_ns;
  if (s.parent >= 0) {
    spans_[static_cast<size_t>(s.parent)].child_ns += end_ns - s.start_ns;
  }
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    AppendJsonString(&out, s.name);
    out += ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    out += Number(static_cast<double>(s.start_ns) / 1e3);
    out += ",\"dur\":";
    out += Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"self_us\":";
    out += Number(static_cast<double>(s.end_ns - s.start_ns - s.child_ns) /
                  1e3);
    out += "}}";
  }
  out += "]}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string note, bool json) {
  metrics_.push_back(
      {std::move(name), std::move(unit), std::move(note), value, json});
}

void Report::PrintTable(FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "%-26s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  }
}

std::string Report::JsonLine(bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.json) continue;
    if (!first) out += ',';
    first = false;
    AppendJsonString(&out, m.name);
    out += ":{\"value\":" + Number(m.value) + ",\"unit\":";
    AppendJsonString(&out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
