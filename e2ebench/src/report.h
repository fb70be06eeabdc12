// Metric collection and the output format.
//
// Every workload fills a Report: named metrics with units, plus free-form
// notes (input shape, host, why the workload exists). main() prints the
// whole report as readable lines and then, as the last line, one JSON
// object with every metric; run.py narrows that object to the metrics
// BENCHMARK.json names for the run's mode.
#ifndef E2EBENCH_SRC_REPORT_H_
#define E2EBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& text) { notes_.emplace_back(key, text); }
  void Fail(const std::string& why);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const { return notes_; }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
};

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// "%.6g" of a double, for notes.
std::string Fmt(double value);

}  // namespace e2e

#endif  // E2EBENCH_SRC_REPORT_H_
