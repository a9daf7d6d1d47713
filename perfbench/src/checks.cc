#include "checks.h"

#include <cmath>
#include <numbers>
#include <sstream>

namespace perfbench {
namespace {

double Field(const sparsedet::JsonValue& result, const char* key,
             const std::string& label, Problems* problems) {
  const sparsedet::JsonValue* v =
      result.is_object() ? result.Find(key) : nullptr;
  if (v == nullptr || !v->is_number()) {
    problems->push_back(label + ": missing number \"" + key + "\"");
    return std::nan("");
  }
  return v->AsDouble();
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

double ClosedFormSinglePeriod(const sparsedet::SystemParams& params) {
  const double rs = params.sensing_range;
  const double dr_area = 2.0 * rs * params.target_speed * params.period_length +
                         std::numbers::pi * rs * rs;
  const double p = params.detect_prob * dr_area /
                   (params.field_width * params.field_height);
  const int n = params.num_nodes;
  const int k = params.threshold_reports;
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  // P[X < k] = sum_{i < k} C(n, i) p^i (1 - p)^(n - i), by term ratios.
  double term = std::pow(1.0 - p, n);
  double below = 0.0;
  for (int i = 0; i < k; ++i) {
    below += term;
    term *= static_cast<double>(n - i) / static_cast<double>(i + 1) * p /
            (1.0 - p);
  }
  return 1.0 - below;
}

Problems CheckAnalyzeResult(const sparsedet::JsonValue& result,
                            const sparsedet::SystemParams& params,
                            const std::string& label) {
  Problems problems;
  const double single = Field(result, "single_period_detection", label, &problems);
  const double ms = Field(result, "detection_probability", label, &problems);
  const double exact = Field(result, "exact_detection_probability", label, &problems);
  const double raw = Field(result, "unnormalized_detection_probability", label, &problems);
  const double eta = Field(result, "predicted_accuracy", label, &problems);
  if (!problems.empty()) return problems;

  const double closed = ClosedFormSinglePeriod(params);
  if (!(std::abs(single - closed) <= 1e-11)) {
    problems.push_back(label + ": single_period_detection " + Num(single) +
                       " != closed form " + Num(closed));
  }
  if (!(std::abs(ms - exact) <= kModelGap)) {
    problems.push_back(label + ": |M-S " + Num(ms) + " - exact " + Num(exact) +
                       "| > " + Num(kModelGap));
  }
  const double lift = ms - raw;
  if (!(lift >= -1e-15 && lift <= 1.0 - eta + 1e-15)) {
    problems.push_back(label + ": normalized - unnormalized = " + Num(lift) +
                       " outside [0, 1 - eta = " + Num(1.0 - eta) + "]");
  }
  return problems;
}

Problems CheckMonotone(const std::vector<double>& values, bool increasing,
                       const std::string& label) {
  Problems problems;
  for (std::size_t i = 1; i < values.size(); ++i) {
    const double step = values[i] - values[i - 1];
    if (!(increasing ? step >= -1e-12 : step <= 1e-12)) {
      problems.push_back(label + ": point " + std::to_string(i) + " moves " +
                         (increasing ? "down" : "up") + " by " +
                         Num(std::abs(step)));
    }
  }
  return problems;
}

Problems CheckSameBytes(const std::string& expected, const std::string& got,
                        const std::string& label) {
  if (expected == got) return {};
  std::size_t at = 0;
  while (at < expected.size() && at < got.size() && expected[at] == got[at]) {
    ++at;
  }
  std::size_t line = 1;
  for (std::size_t i = 0; i < at; ++i) line += expected[i] == '\n';
  return {label + ": response " + std::to_string(line) +
          " differs from the reference (byte " + std::to_string(at) + ", " +
          std::to_string(got.size()) + " bytes received, " +
          std::to_string(expected.size()) + " expected)"};
}

Problems CheckEstimate(std::int64_t detections, std::int64_t trials,
                       double analysis, const std::string& label) {
  constexpr double z_max = 4.0;
  if (trials <= 0 || detections < 0 || detections > trials) {
    return {label + ": impossible count " + std::to_string(detections) + "/" +
            std::to_string(trials)};
  }
  const double estimate =
      static_cast<double>(detections) / static_cast<double>(trials);
  const double se =
      std::sqrt(analysis * (1.0 - analysis) / static_cast<double>(trials));
  if (std::abs(estimate - analysis) <= z_max * se + kModelGap) return {};
  return {label + ": estimate " + Num(estimate) + " is more than " +
          Num(z_max) + " SE (" + Num(se) + ") + " + Num(kModelGap) +
          " from the analysis " + Num(analysis)};
}

Problems CheckCount(std::uint64_t a, std::uint64_t b, const std::string& label) {
  if (a == b) return {};
  return {label + ": " + std::to_string(a) + " != " + std::to_string(b)};
}

}  // namespace perfbench
