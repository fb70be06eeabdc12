#include "e2ebench/src/report.h"

#include <algorithm>
#include <cstdio>

namespace e2e {

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "e2ebench: check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string Fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace e2e
