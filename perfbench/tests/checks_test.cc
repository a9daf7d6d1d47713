// Each checker accepts a genuine output of the library and rejects the
// same output with one perturbation. A check that cannot fail shows
// nothing, so every property the workloads assert is exercised here.
#include <gtest/gtest.h>

#include <sstream>

#include "checks.h"
#include "core/ms_approach.h"
#include "core/single_period.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "harness.h"
#include "sim/monte_carlo.h"

namespace perfbench {
namespace {

using sparsedet::JsonValue;

sparsedet::SystemParams Scenario150() {
  sparsedet::SystemParams p = sparsedet::SystemParams::OnrDefaults();
  p.num_nodes = 150;
  p.threshold_reports = 4;
  p.detect_prob = 0.87;
  return p;
}

JsonValue AnalyzeResult(const sparsedet::SystemParams& params) {
  sparsedet::engine::WorkUnit unit;
  unit.op = sparsedet::engine::RequestOp::kAnalyze;
  unit.params = params;
  return sparsedet::engine::EvaluateUnit(unit);
}

JsonValue With(JsonValue result, const char* key, double value) {
  result.Set(key, value);
  return result;
}

double Get(const JsonValue& result, const char* key) {
  return result.Find(key)->AsDouble();
}

TEST(ClosedForm, MatchesLibrarySinglePeriod) {
  for (int nodes : {20, 60, 150, 240}) {
    for (int k : {1, 3, 5, 9}) {
      sparsedet::SystemParams p = Scenario150();
      p.num_nodes = nodes;
      p.threshold_reports = k;
      EXPECT_NEAR(ClosedFormSinglePeriod(p),
                  sparsedet::SinglePeriodDetectionProbability(p), 1e-12)
          << nodes << " nodes, k = " << k;
    }
  }
}

TEST(CheckAnalyzeResult, AcceptsGenuineResult) {
  const sparsedet::SystemParams p = Scenario150();
  EXPECT_TRUE(CheckAnalyzeResult(AnalyzeResult(p), p, "genuine").empty());
}

TEST(CheckAnalyzeResult, RejectsWrongSinglePeriod) {
  const sparsedet::SystemParams p = Scenario150();
  const JsonValue r = AnalyzeResult(p);
  EXPECT_FALSE(CheckAnalyzeResult(
                   With(r, "single_period_detection",
                        Get(r, "single_period_detection") + 1e-9),
                   p, "perturbed")
                   .empty());
}

TEST(CheckAnalyzeResult, RejectsModelGap) {
  const sparsedet::SystemParams p = Scenario150();
  const JsonValue r = AnalyzeResult(p);
  // Moves M-S away from exact while keeping normalized - unnormalized.
  JsonValue moved = With(r, "detection_probability",
                         Get(r, "exact_detection_probability") - 0.02);
  moved = With(moved, "unnormalized_detection_probability",
               Get(moved, "detection_probability") -
                   (Get(r, "detection_probability") -
                    Get(r, "unnormalized_detection_probability")));
  EXPECT_FALSE(CheckAnalyzeResult(moved, p, "perturbed").empty());
}

TEST(CheckAnalyzeResult, RejectsUnnormalizedAboveNormalized) {
  const sparsedet::SystemParams p = Scenario150();
  const JsonValue r = AnalyzeResult(p);
  EXPECT_FALSE(CheckAnalyzeResult(
                   With(r, "unnormalized_detection_probability",
                        Get(r, "detection_probability") + 1e-6),
                   p, "perturbed")
                   .empty());
}

TEST(CheckAnalyzeResult, RejectsLiftBeyondTruncation) {
  const sparsedet::SystemParams p = Scenario150();
  const JsonValue r = AnalyzeResult(p);
  const double eta = Get(r, "predicted_accuracy");
  EXPECT_FALSE(CheckAnalyzeResult(
                   With(r, "unnormalized_detection_probability",
                        Get(r, "detection_probability") - (1.0 - eta) - 1e-6),
                   p, "perturbed")
                   .empty());
}

TEST(CheckAnalyzeResult, RejectsMissingField) {
  const sparsedet::SystemParams p = Scenario150();
  JsonValue r = JsonValue::Object();
  r.Set("detection_probability", 0.5);
  EXPECT_FALSE(CheckAnalyzeResult(r, p, "perturbed").empty());
}

std::vector<double> NodesSweep() {
  std::vector<double> pd;
  for (int nodes = 60; nodes <= 240; nodes += 20) {
    sparsedet::SystemParams p = Scenario150();
    p.num_nodes = nodes;
    pd.push_back(sparsedet::MsApproachAnalyze(p).detection_probability);
  }
  return pd;
}

TEST(CheckMonotone, AcceptsGenuineSweepAndRejectsSwappedPoints) {
  std::vector<double> pd = NodesSweep();
  EXPECT_TRUE(CheckMonotone(pd, true, "genuine").empty());
  std::swap(pd[3], pd[4]);
  EXPECT_FALSE(CheckMonotone(pd, true, "perturbed").empty());
}

TEST(CheckMonotone, RejectsDetectionRisingWithK) {
  std::vector<double> by_k;
  for (int k = 3; k <= 5; ++k) {
    sparsedet::SystemParams p = Scenario150();
    p.threshold_reports = k;
    by_k.push_back(sparsedet::MsApproachAnalyze(p).detection_probability);
  }
  EXPECT_TRUE(CheckMonotone(by_k, false, "genuine").empty());
  by_k[2] = by_k[1] + 1e-6;
  EXPECT_FALSE(CheckMonotone(by_k, false, "perturbed").empty());
}

TEST(CheckSameBytes, RejectsFlippedByteAndReorderedResponses) {
  const ServeInput input = MakeServeInput(7, 1, 6);
  const std::string expected = StdioServe(input.conn_lines[0]);
  EXPECT_TRUE(CheckSameBytes(expected, StdioServe(input.conn_lines[0]), "genuine").empty());

  std::string flipped = expected;
  flipped[flipped.size() / 2] ^= 1;
  EXPECT_FALSE(CheckSameBytes(expected, flipped, "perturbed").empty());

  std::vector<std::string> lines;
  std::istringstream in(expected);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 2u);
  std::swap(lines[0], lines[1]);
  EXPECT_FALSE(CheckSameBytes(expected, JoinLines(lines), "perturbed").empty());
}

TEST(CheckEstimate, AcceptsSimulationAndRejectsShiftedCount) {
  sparsedet::TrialConfig config;
  config.params = Scenario150();
  sparsedet::MonteCarloOptions mc;
  mc.trials = 400;
  mc.seed = 11;
  mc.threads = 1;
  const sparsedet::ProportionEstimate est =
      sparsedet::EstimateDetectionProbability(config, mc);
  const double analysis =
      sparsedet::MsApproachAnalyze(config.params).detection_probability;
  EXPECT_TRUE(CheckEstimate(est.successes, est.trials, analysis, "genuine").empty());

  const double se = std::sqrt(analysis * (1.0 - analysis) / est.trials);
  const auto shift = static_cast<std::int64_t>((4.0 * se + kModelGap) * est.trials) + 2;
  const std::int64_t moved =
      est.successes + (analysis > 0.5 ? -shift : shift);
  EXPECT_FALSE(CheckEstimate(moved, est.trials, analysis, "perturbed").empty());
  EXPECT_FALSE(CheckEstimate(est.trials + 1, est.trials, analysis, "perturbed").empty());
}

TEST(CheckCount, RejectsOffByOne) {
  EXPECT_TRUE(CheckCount(1024, 1024, "genuine").empty());
  EXPECT_FALSE(CheckCount(1024, 1023, "perturbed").empty());
}

}  // namespace
}  // namespace perfbench
