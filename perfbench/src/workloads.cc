// The three timed workloads. Each times whole rounds of fixed work from
// the same starting state (see AddEndToEnd for how they are summed up); all
// output checks run between rounds, outside the timed spans.
#include <iostream>
#include <sstream>

#include "checks.h"
#include "core/ms_approach.h"
#include "harness.h"
#include "prob/memo_cache.h"

namespace perfbench {
namespace {

using sparsedet::JsonValue;

// The fields of the engine's {"stats": ...} line.
struct Stats {
  std::uint64_t requests = 0, errors = 0, units = 0, hits = 0, misses = 0;
};
Stats ParseStats(const std::string& line) {
  const JsonValue json = sparsedet::ParseJson(line);
  const JsonValue& s = *json.Find("stats");
  const JsonValue& cache = *s.Find("cache");
  auto count = [](const JsonValue& obj, const char* key) {
    return static_cast<std::uint64_t>(obj.Find(key)->AsDouble());
  };
  return {count(s, "requests"), count(s, "errors"), count(s, "units"),
          count(cache, "hits"), count(cache, "misses")};
}

// Responses in request order; an error response counts its request's ops
// as failed.
std::vector<JsonValue> ParseResponses(const std::string& output,
                                      std::size_t expected, Report* report) {
  std::vector<JsonValue> responses;
  for (const std::string& line : SplitLines(output)) {
    responses.push_back(sparsedet::ParseJson(line));
  }
  report->Fail(CheckCount(responses.size(), expected, "response count"));
  return responses;
}

std::size_t SweepPoints(const StudyRequest& r) {
  std::size_t n = 0;
  for (double v = r.from; v <= r.to + 1e-9; v += r.step) ++n;
  return n;
}

void CheckStudy(const std::vector<StudyRequest>& requests, const BatchPass& pass,
                Report* report) {
  const std::vector<JsonValue> responses =
      ParseResponses(pass.output, requests.size(), report);
  std::vector<std::vector<std::pair<int, const JsonValue*>>> groups;
  for (std::size_t i = 0; i < responses.size() && i < requests.size(); ++i) {
    const StudyRequest& request = requests[i];
    const JsonValue* result = responses[i].Find("result");
    const std::string label = "study request " + std::to_string(i + 1);
    if (result == nullptr) {
      report->failed += request.op == "sweep" ? SweepPoints(request) : 1;
      continue;
    }
    if (request.op == "analyze") {
      report->Fail(CheckAnalyzeResult(*result, request.scenario.Params(), label));
      if (groups.size() <= static_cast<std::size_t>(request.k_group)) {
        groups.resize(request.k_group + 1);
      }
      groups[request.k_group].push_back({request.scenario.k, result});
      continue;
    }
    if (request.sweep_param != "nodes" && request.sweep_param != "rs") continue;
    std::vector<double> pd;
    for (const JsonValue& point : result->Find("points")->Items()) {
      pd.push_back(point.Find("detection_probability")->AsDouble());
    }
    report->Fail(CheckCount(pd.size(), SweepPoints(request), label + " points"));
    report->Fail(CheckMonotone(pd, true, label + " P_D over " + request.sweep_param));
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::sort(groups[g].begin(), groups[g].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const char* key : {"detection_probability", "exact_detection_probability"}) {
      std::vector<double> by_k;
      for (const auto& [k, result] : groups[g]) by_k.push_back(result->Find(key)->AsDouble());
      report->Fail(CheckMonotone(by_k, false, "analyze group " + std::to_string(g) +
                                                  " " + key + " over k"));
    }
  }
  // Every unit is a result-cache miss and an insert: the grids share no point.
  const Stats stats = ParseStats(pass.stats_line);
  report->Fail(CheckCount(stats.requests, requests.size(), "study stats requests"));
  report->Fail(CheckCount(stats.errors, 0, "study stats errors"));
  report->Fail(CheckCount(stats.units, pass.round.ops, "study stats units"));
  report->Fail(CheckCount(stats.misses, pass.round.ops, "study stats misses"));
  report->Fail(CheckCount(stats.hits, 0, "study stats hits"));
}

void CheckSimulate(const std::vector<SimRequest>& requests, const BatchPass& pass,
                   const BatchPass& other_workers, Report* report) {
  const std::vector<JsonValue> responses =
      ParseResponses(pass.output, requests.size(), report);
  const std::vector<JsonValue> rerun =
      ParseResponses(other_workers.output, requests.size(), report);
  for (std::size_t i = 0; i < responses.size() && i < requests.size(); ++i) {
    const SimRequest& request = requests[i];
    const JsonValue* result = responses[i].Find("result");
    const JsonValue* again = i < rerun.size() ? rerun[i].Find("result") : nullptr;
    const std::string label = "simulate request " + std::to_string(i + 1);
    if (result == nullptr || again == nullptr) {
      report->failed += request.trials;
      continue;
    }
    const auto trials = static_cast<std::int64_t>(result->Find("trials")->AsDouble());
    const auto detections =
        static_cast<std::int64_t>(result->Find("detections")->AsDouble());
    report->Fail(CheckCount(trials, request.trials, label + " trials"));
    const double analysis =
        sparsedet::MsApproachAnalyze(request.scenario.Params()).detection_probability;
    report->Fail(CheckEstimate(detections, trials, analysis, label));
    report->Fail(CheckCount(
        detections, static_cast<std::uint64_t>(again->Find("detections")->AsDouble()),
        label + " detections with another worker count"));
  }
  const Stats stats = ParseStats(pass.stats_line);
  report->Fail(CheckCount(stats.units, requests.size(), "simulate stats units"));
  report->Fail(CheckCount(stats.errors, 0, "simulate stats errors"));
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

}  // namespace

BatchPass RunBatchPass(const std::string& stream, std::size_t workers) {
  sparsedet::prob::MemoCache::Global().Clear();
  BatchPass pass;
  sparsedet::engine::EngineOptions options;
  options.threads = workers;
  std::ostringstream out;
  std::ostringstream stats;
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  {
    sparsedet::engine::BatchEngine engine(options);
    std::istringstream in(stream);
    engine.RunBatch(in, out);
    pass.round.wall_s = SecondsSince(t0);
    pass.round.cpu_s = ProcessCpuSeconds() - cpu0;
    pass.round.ops = engine.stats().units;
    engine.WriteStatsLine(stats);
    pass.registry = engine.MetricsSnapshot();
  }
  pass.output = out.str();
  pass.stats_line = stats.str();
  return pass;
}

Report RunStudyBatch(const RunOptions& options) {
  Report report;
  const std::vector<StudyRequest> requests =
      MakeStudyInput(options.seed, kStudyRepeats);
  std::vector<std::string> lines;
  for (const StudyRequest& r : requests) lines.push_back(r.line);
  const std::string stream = JoinLines(lines);

  const BatchPass warm = RunBatchPass(stream, kStudyWorkers);
  const double setup_cpu_s = ProcessCpuSeconds();
  // The coordinator plans and renders while both workers solve. Every
  // round repeats set-up's work on a fresh engine, so peak_rss_mb is read
  // when set-up ends (see README).
  const Timed timed = TimeRounds(options.seconds, kStudyWorkers + 1, 0, [&] {
    const BatchPass pass = RunBatchPass(stream, kStudyWorkers);
    report.Fail(CheckSameBytes(warm.output, pass.output, "study round output"));
    return pass.round;
  });
  CheckStudy(requests, warm, &report);
  report.failed *= timed.rounds.size();
  AddEndToEnd(timed, setup_cpu_s, RateStatistic::kFastest, &report);
  return report;
}

Report RunSimulateMc(const RunOptions& options) {
  Report report;
  const std::vector<SimRequest> requests = MakeSimInput(options.seed, kSimTrials);
  std::vector<std::string> lines;
  std::uint64_t trials = 0;
  for (const SimRequest& r : requests) {
    lines.push_back(r.line);
    trials += r.trials;
  }
  const std::string stream = JoinLines(lines);

  const BatchPass warm = RunBatchPass(stream, kSimWorkers);
  const double setup_cpu_s = ProcessCpuSeconds();
  // Trials run on the workers; the coordinator only waits. As above, a
  // fresh engine per round, so peak_rss_mb is read when set-up ends.
  const Timed timed = TimeRounds(options.seconds, kSimWorkers, 0, [&] {
    BatchPass pass = RunBatchPass(stream, kSimWorkers);
    report.Fail(CheckSameBytes(warm.output, pass.output, "simulate round output"));
    pass.round.ops = trials;  // an op is one Monte-Carlo trial
    return pass.round;
  });
  CheckSimulate(requests, warm, RunBatchPass(stream, 1), &report);
  report.failed *= timed.rounds.size();
  AddEndToEnd(timed, setup_cpu_s, RateStatistic::kFastest, &report);
  return report;
}

ServeSession::ServeSession(const ServeInput& input) : input_(input) {
  sparsedet::engine::EngineOptions eopts;
  eopts.threads = 1;  // every timed request is a cache hit; the pool idles
  engine_ = std::make_unique<sparsedet::engine::BatchEngine>(eopts);
  sparsedet::server::TcpServerOptions sopts;
  sopts.port = 0;
  sopts.max_connections = 8;
  server_ = std::make_unique<sparsedet::server::TcpServer>(*engine_, sopts);
  server_->Start();
  loop_ = std::thread([this] { server_->Run(); });
  for (std::size_t c = 0; c < input.conn_lines.size(); ++c) {
    const int fd = ConnectLocal(server_->port());
    if (fd < 0) {
      Stop();  // the destructor does not run when the constructor throws
      throw std::runtime_error("cannot connect to the server");
    }
    fds_.push_back(fd);
  }
}

ServeSession::~ServeSession() { Stop(); }

void ServeSession::Stop() {
  for (int fd : fds_) ::close(fd);
  server_->RequestDrain();
  loop_.join();
}

std::string ServeSession::Prime() {
  std::vector<std::string> received;
  std::vector<std::int64_t> latency;
  if (!RunClosedLoop({fds_[0]}, {input_.prime_lines}, 1, &received, &latency)) {
    throw std::runtime_error("connection failed while priming");
  }
  return received[0];
}

Round ServeSession::RunRound(const std::vector<std::vector<std::string>>& lines,
                             std::vector<std::string>* received,
                             std::vector<std::int64_t>* latency_ns) {
  const std::size_t before = latency_ns->size();
  const double cpu0 = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  const bool ok = RunClosedLoop(fds_, lines, kServeWindow, received, latency_ns);
  Round round;
  round.wall_s = SecondsSince(t0);
  round.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!ok) throw std::runtime_error("a client connection failed");
  round.ops = latency_ns->size() - before;
  return round;
}

std::string StdioServe(const std::vector<std::string>& lines) {
  sparsedet::engine::EngineOptions options;
  options.threads = 1;
  sparsedet::engine::BatchEngine engine(options);
  std::istringstream in(JoinLines(lines));
  std::ostringstream out;
  engine.Serve(in, out);
  return out.str();
}

Report RunServeCached(const RunOptions& options) {
  Report report;
  const ServeInput input =
      MakeServeInput(options.seed, kServeConnections, kServeLinesPerConnection);
  // The warm-up sends one window of lines on each connection. Priming has
  // already cached every scenario; the warm-up finishes the connections'
  // lazy set-up without a whole round of traffic, whose CPU time varies
  // with how the host schedules it.
  std::vector<std::vector<std::string>> warm_lines;
  for (const std::vector<std::string>& lines : input.conn_lines) {
    warm_lines.emplace_back(lines.begin(), lines.begin() + kServeWindow);
  }
  std::vector<std::string> warm;
  std::vector<std::vector<std::string>> rounds_received;
  Timed timed;
  std::string primed;
  std::uint64_t hits = 0, misses = 0, responses = 0;
  {
    ServeSession session(input);
    primed = session.Prime();
    std::vector<std::int64_t> latency;
    responses += session.RunRound(warm_lines, &warm, &latency).ops;
    const double setup_cpu_s = ProcessCpuSeconds();
    // The client's receive buffers are sized once, from the warm-up's
    // bytes per response, so that how the bytes happened to arrive does
    // not change the harness's own share of peak_rss_mb.
    std::vector<std::string> received(warm.size());
    for (std::size_t c = 0; c < warm.size(); ++c) {
      received[c].reserve(2 * warm[c].size() / kServeWindow * kServeLinesPerConnection);
    }
    // The emitter renders while the event loop and the client move bytes.
    // The server lives through every round, so peak_rss_mb is read after
    // some of them.
    timed = TimeRounds(options.seconds, 3, kFixedRounds, [&] {
      latency.clear();
      const Round round = session.RunRound(input.conn_lines, &received, &latency);
      // Keep one copy per distinct stream; rounds normally agree.
      if (rounds_received.empty() || received != rounds_received.back()) {
        rounds_received.push_back(received);
      }
      responses += round.ops;
      return round;
    });
    const auto counters = session.engine().cache().counters();
    hits = counters.hits;
    misses = counters.misses;
    // A round of 6144 pipelined responses takes about half a second.
    AddEndToEnd(timed, setup_cpu_s, RateStatistic::kMedian, &report);
  }

  // Every TCP response equals the stdio serve response for the same line,
  // in request order per connection.
  report.Fail(CheckSameBytes(StdioServe(input.prime_lines), primed, "primed responses"));
  for (std::size_t c = 0; c < input.conn_lines.size(); ++c) {
    report.Fail(CheckSameBytes(StdioServe(warm_lines[c]), warm[c],
                               "warm-up connection " + std::to_string(c)));
    const std::string expected = StdioServe(input.conn_lines[c]);
    for (const std::vector<std::string>& received : rounds_received) {
      report.Fail(CheckSameBytes(expected, received[c],
                                 "connection " + std::to_string(c)));
    }
    for (const std::string& line : SplitLines(expected)) {
      if (sparsedet::ParseJson(line).Find("result") == nullptr) {
        report.failed += timed.rounds.size();
      }
    }
  }
  const std::vector<std::string> primed_lines = SplitLines(primed);
  for (std::size_t i = 0; i < primed_lines.size() && i < input.scenarios.size(); ++i) {
    const JsonValue response = sparsedet::ParseJson(primed_lines[i]);
    if (const JsonValue* result = response.Find("result")) {
      report.Fail(CheckAnalyzeResult(*result, input.scenarios[i].Params(),
                                     "serve scenario " + std::to_string(i)));
    }
  }
  // One miss per scenario while priming, a hit for every later request.
  report.Fail(CheckCount(misses, input.scenarios.size(), "serve cache misses"));
  report.Fail(CheckCount(hits, responses, "serve cache hits"));
  return report;
}

}  // namespace perfbench
