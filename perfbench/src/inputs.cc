// Seeded input generation. The seed picks node counts, thresholds,
// detection probabilities, small range/speed jitter and request order; the
// structure of each workload (grids, scenario counts, trial counts) is
// fixed, so every seed asks for about the same amount of work.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Uniform integer in [lo, hi].
int Pick(sparsedet::Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
}

// A multiplicative jitter of at most +/- `fraction`, rounded to 0.1 so the
// request lines stay short.
double Jitter(sparsedet::Rng& rng, double value, double fraction) {
  const double v = value * (1.0 + rng.Uniform(-fraction, fraction));
  return static_cast<double>(static_cast<long long>(v * 10.0 + 0.5)) / 10.0;
}

template <typename T>
void Shuffle(std::vector<T>& items, sparsedet::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.UniformInt(i)]);
  }
}

// Distinct detection probabilities in (lo, hi), one per request, so no two
// requests share a work unit.
std::vector<double> DistinctPd(std::size_t count, double lo, double hi,
                               sparsedet::Rng& rng) {
  std::vector<std::size_t> slot(count);
  std::iota(slot.begin(), slot.end(), 0);
  Shuffle(slot, rng);
  std::vector<double> pd(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(slot[i]) + rng.Uniform(0.1, 0.9)) /
                     static_cast<double>(count);
    pd[i] = lo + (hi - lo) * u;
  }
  return pd;
}

}  // namespace

sparsedet::SystemParams Scenario::Params() const {
  sparsedet::SystemParams p = sparsedet::SystemParams::OnrDefaults();
  p.num_nodes = nodes;
  p.sensing_range = rs;
  p.target_speed = speed;
  p.window_periods = window;
  p.threshold_reports = k;
  p.detect_prob = pd;
  return p;
}

std::string Scenario::Json() const {
  return "{\"nodes\": " + std::to_string(nodes) + ", \"rs\": " + Num(rs) +
         ", \"speed\": " + Num(speed) + ", \"window\": " +
         std::to_string(window) + ", \"k\": " + std::to_string(k) +
         ", \"pd\": " + Num(pd) + "}";
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<StudyRequest> MakeStudyInput(std::uint64_t seed, int repeats) {
  sparsedet::Rng rng(seed ^ 0x57d1ULL);
  // (rs, speed, window) bases; every sweep grid below keeps M > ms on them.
  struct Base {
    double rs, speed;
    int window;
  };
  const Base bases[] = {{800, 8, 16}, {1000, 10, 20}, {1200, 6, 24}, {900, 12, 18}};
  struct Grid {
    const char* param;
    double from, to, step;
  };
  const Grid grids[] = {{"nodes", 60, 240, 20},
                        {"rs", 600, 1500, 100},
                        {"speed", 5, 14, 1},
                        {"window", 12, 30, 2}};

  std::vector<StudyRequest> requests;
  int group = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const Base& base : bases) {
      auto scenario = [&] {
        Scenario s;
        s.nodes = Pick(rng, 80, 200);
        s.rs = Jitter(rng, base.rs, 0.005);
        s.speed = Jitter(rng, base.speed, 0.005);
        s.window = base.window;
        s.k = Pick(rng, 3, 6);
        return s;
      };
      for (const Grid& grid : grids) {
        StudyRequest r;
        r.op = "sweep";
        r.scenario = scenario();
        r.sweep_param = grid.param;
        r.from = grid.from;
        r.to = grid.to;
        r.step = grid.step;
        requests.push_back(r);
      }
      const Scenario triple = scenario();
      for (int dk = 0; dk < 3; ++dk) {
        StudyRequest r;
        r.op = "analyze";
        r.scenario = triple;
        r.scenario.k = triple.k + dk;
        r.k_group = group;
        requests.push_back(r);
      }
      ++group;
    }
  }
  const std::vector<double> pd = DistinctPd(requests.size(), 0.8, 0.95, rng);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].scenario.pd = pd[i];
  }
  // Analyze triples share pd so they differ in k alone.
  for (StudyRequest& r : requests) {
    if (r.k_group < 0) continue;
    for (const StudyRequest& first : requests) {
      if (first.k_group == r.k_group) {
        r.scenario.pd = first.scenario.pd;
        break;
      }
    }
  }
  Shuffle(requests, rng);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    StudyRequest& r = requests[i];
    std::ostringstream os;
    os << "{\"id\": " << i + 1 << ", \"op\": \"" << r.op
       << "\", \"params\": " << r.scenario.Json();
    if (r.op == "sweep") {
      os << ", \"sweep\": {\"param\": \"" << r.sweep_param
         << "\", \"from\": " << Num(r.from) << ", \"to\": " << Num(r.to)
         << ", \"step\": " << Num(r.step) << "}";
    }
    os << "}";
    r.line = os.str();
  }
  return requests;
}

ServeInput MakeServeInput(std::uint64_t seed, int connections,
                          int lines_per_connection) {
  sparsedet::Rng rng(seed ^ 0x5e7eULL);
  ServeInput input;
  constexpr int kScenarios = 16;
  for (int i = 0; i < kScenarios; ++i) {
    Scenario s;
    s.nodes = 60 + 12 * i + Pick(rng, 0, 11);
    s.rs = Jitter(rng, 1000.0, 0.005);
    s.speed = Jitter(rng, 6.0 + 2.0 * (i % 4), 0.005);
    s.window = 20;
    s.k = Pick(rng, 3, 6);
    s.pd = 0.85 + 0.1 * rng.UniformDouble();
    input.scenarios.push_back(s);
    input.prime_lines.push_back("{\"id\": \"p" + std::to_string(i) +
                                "\", \"op\": \"analyze\", \"params\": " +
                                s.Json() + "}");
  }
  // Each scenario's params are formatted once: formatting them again per
  // line made set-up time depend on the seed's digits.
  std::vector<std::string> params;
  for (const Scenario& s : input.scenarios) params.push_back(s.Json());
  input.conn_lines.resize(connections);
  for (int c = 0; c < connections; ++c) {
    for (int i = 0; i < lines_per_connection; ++i) {
      const int slot = static_cast<int>(rng.UniformInt(kScenarios));
      input.conn_lines[c].push_back(
          "{\"id\": \"c" + std::to_string(c) + "-" + std::to_string(i) +
          "\", \"op\": \"analyze\", \"params\": " + params[slot] + "}");
    }
  }
  return input;
}

std::vector<SimRequest> MakeSimInput(std::uint64_t seed, int trials) {
  sparsedet::Rng rng(seed ^ 0x51aaULL);
  std::vector<SimRequest> requests;
  for (int nodes : {60, 120, 180, 240}) {
    for (double speed : {4.0, 10.0}) {
      for (const char* motion : {"straight", "random-walk"}) {
        SimRequest r;
        r.scenario.nodes = nodes;
        r.scenario.speed = speed;
        r.motion = motion;
        r.trials = trials;
        r.sim_seed = rng.UniformInt(std::uint64_t{1} << 40);
        requests.push_back(r);
      }
    }
  }
  Shuffle(requests, rng);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SimRequest& r = requests[i];
    r.line = "{\"id\": " + std::to_string(i + 1) +
             ", \"op\": \"simulate\", \"params\": " + r.scenario.Json() +
             ", \"sim\": {\"trials\": " + std::to_string(r.trials) +
             ", \"seed\": " + std::to_string(r.sim_seed) +
             ", \"motion\": \"" + r.motion + "\"}}";
  }
  return requests;
}

}  // namespace perfbench
