// Output checks of the benchmark, against independent computations or
// properties the paper's method must have. None compares against a stored
// copy of earlier output. Each returns the list of violations found; an
// empty list means the output passed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/params.h"

namespace perfbench {

using Problems = std::vector<std::string>;

// P1[X >= k] for X ~ Binomial(N, p_indi), p_indi = Pd |DR| / S (Eqs. 1-2),
// summed term by term here rather than taken from the library.
double ClosedFormSinglePeriod(const sparsedet::SystemParams& params);

// Largest |M-S - exact| accepted: the model gap of the capped solve.
inline constexpr double kModelGap = 0.01;

// One analyze result:
//   * single_period_detection equals the closed form above;
//   * |detection_probability - exact_detection_probability| <= kModelGap;
//   * 0 <= normalized - unnormalized <= 1 - predicted_accuracy.
Problems CheckAnalyzeResult(const sparsedet::JsonValue& result,
                            const sparsedet::SystemParams& params,
                            const std::string& label);

// values[i] must not decrease (increasing = true) or not increase with i.
Problems CheckMonotone(const std::vector<double>& values, bool increasing,
                       const std::string& label);

// The received stream must equal the expected one byte for byte; reports
// the first differing response line.
Problems CheckSameBytes(const std::string& expected, const std::string& got,
                        const std::string& label);

// A Monte-Carlo estimate must lie within four binomial standard errors of
// the analysis, plus the model gap.
Problems CheckEstimate(std::int64_t detections, std::int64_t trials,
                       double analysis, const std::string& label);

// Two counts from independent paths must agree exactly.
Problems CheckCount(std::uint64_t a, std::uint64_t b, const std::string& label);

}  // namespace perfbench
