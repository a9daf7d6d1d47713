// The traced run. For every workload's inputs it first makes one untraced
// pass through the real path (batch engine or TCP server) and then calls
// each layer's public functions in sequence on the same inputs, with a span
// around every call. Counts from the traced pass are checked against the
// untraced pass's own counters, and the traced responses against the bytes
// the real path produced. Spans stay in memory and are written out as
// JSONL when the run ends. trace.overhead_s is what the spans cost: the
// named workload's layer pass with and without them.
#include <fstream>
#include <iostream>
#include <numbers>
#include <sstream>

#include "checks.h"
#include "common/framing.h"
#include "core/ms_approach.h"
#include "core/region_pmf.h"
#include "core/s_approach.h"
#include "engine/cache.h"
#include "engine/request.h"
#include "geometry/field.h"
#include "geometry/region_decomposition.h"
#include "harness.h"
#include "markov/increment_chain.h"
#include "prob/memo_cache.h"
#include "sim/deployment.h"
#include "sim/trial.h"

namespace perfbench {
namespace {

using sparsedet::JsonValue;
namespace engine = sparsedet::engine;

class SpanLog {
 public:
  // A disabled log records nothing and reads no clock: the same layer pass
  // with and without spans measures what the spans cost.
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  struct Span {
    int parent = -1;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::string request;
  };

  // Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog& log, int id) : log_(log), id_(id) {}
    ~Scope() {
      if (id_ >= 0) log_.spans_[id_].end_ns = NowNs();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_;
  };

  Scope Open(const char* name, int parent, const std::string& request) {
    if (!enabled_) return Scope(*this, -1);
    spans_.push_back({parent, name, NowNs(), 0, request});
    return Scope(*this, static_cast<int>(spans_.size()) - 1);
  }

  std::vector<double> DurationsNs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }
  double MedianUs(const std::string& name) const {
    return Median(DurationsNs(name)) * 1e-3;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": \""
          << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"request\": \"" << s.request
          << "\"}\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

std::size_t CountNumbers(const JsonValue& v) {
  if (v.is_number()) return 1;
  std::size_t n = 0;
  if (v.is_array()) {
    for (const JsonValue& item : v.Items()) n += CountNumbers(item);
  } else if (v.is_object()) {
    for (const auto& field : v.Fields()) n += CountNumbers(field.second);
  }
  return n;
}

// The median of a registry histogram, in the unit it records; `phase`
// selects one of the engine's phase histograms, empty for an unlabelled one.
double HistogramP50(const sparsedet::obs::RegistrySnapshot& snapshot,
                    const std::string& name, const std::string& phase = "") {
  for (const auto& h : snapshot.histograms) {
    if (h.name != name) continue;
    if (!phase.empty() && (h.labels.empty() || h.labels[0].second != phase)) {
      continue;
    }
    return h.histogram.Quantile(0.5);
  }
  throw std::runtime_error("histogram " + name + " " + phase + " not found");
}

// What the layer-by-layer request path did.
struct RequestPathTotals {
  std::uint64_t lines = 0, units = 0, hits = 0, misses = 0;
  std::uint64_t render_ns = 0, numbers = 0;
};

// One JSONL request line through every layer of the engine's request path,
// in the order the engine runs them, with the result cache in `cache`.
// Returns the rendered response line.
std::string TraceRequestLine(const std::string& line, int line_number,
                             const std::string& request_id,
                             engine::LruResultCache& cache, SpanLog& log,
                             RequestPathTotals* totals) {
  auto root = log.Open("request", -1, request_id);
  JsonValue json;
  {
    auto s = log.Open("json.parse", root.id(), request_id);
    json = sparsedet::ParseJson(line, 64);
  }
  engine::Request request;
  {
    auto s = log.Open("request.parse", root.id(), request_id);
    request = engine::ParseRequest(json, line_number);
  }
  std::vector<engine::WorkUnit> units;
  std::vector<std::string> keys;
  {
    auto s = log.Open("request.plan", root.id(), request_id);
    units = engine::ExpandRequest(request);
    for (const engine::WorkUnit& unit : units) keys.push_back(engine::CanonicalKey(unit));
  }
  std::vector<std::shared_ptr<const JsonValue>> results;
  for (std::size_t u = 0; u < units.size(); ++u) {
    std::shared_ptr<const JsonValue> value;
    {
      auto s = log.Open("cache.lookup", root.id(), request_id);
      value = cache.Get(keys[u]);
    }
    if (value == nullptr) {
      auto s = log.Open("request.evaluate", root.id(), request_id);
      value = std::make_shared<const JsonValue>(engine::EvaluateUnit(units[u]));
      cache.Put(keys[u], value);
    }
    results.push_back(std::move(value));
  }
  std::vector<const JsonValue*> views;
  for (const auto& r : results) views.push_back(r.get());
  JsonValue response = JsonValue::Object();
  {
    auto s = log.Open("request.compose", root.id(), request_id);
    response.Set("id", request.id)
        .Set("op", engine::OpName(request.op))
        .Set("result", engine::ComposeResponse(request, views));
  }
  std::string text;
  const std::int64_t t0 = NowNs();
  {
    auto s = log.Open("json.render", root.id(), request_id);
    text = response.ToString();
  }
  totals->render_ns += static_cast<std::uint64_t>(NowNs() - t0);
  totals->numbers += CountNumbers(response);
  totals->lines += 1;
  totals->units += units.size();
  return text;
}

RequestPathTotals TraceLines(const std::vector<std::string>& lines,
                             const std::string& prefix,
                             const std::vector<std::string>& expected,
                             engine::LruResultCache& cache, SpanLog& log,
                             Report* report) {
  RequestPathTotals totals;
  const auto before = cache.counters();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string text =
        TraceRequestLine(lines[i], static_cast<int>(i) + 1,
                         prefix + std::to_string(i + 1), cache, log, &totals);
    if (i < expected.size() && text != expected[i]) {
      report->Fail({prefix + std::to_string(i + 1) +
                    ": the layer-by-layer response differs from the real path's"});
    }
  }
  report->Fail(CheckCount(expected.size(), lines.size(), prefix + " responses"));
  totals.hits = cache.counters().hits - before.hits;
  totals.misses = cache.counters().misses - before.misses;
  return totals;
}

// What the spans alone cost on one layer pass: `pass(log)` runs in pairs
// from the same starting state, once into a recording log and once into a
// disabled one, alternating which goes first. The pass is serial, so its
// process CPU time is its own and no preemption of the host enters it.
// Returns the median over pairs of the recording pass's extra CPU seconds.
template <typename Pass>
double SpanOverheadS(Pass&& pass) {
  std::vector<double> extra;
  for (int pair = 0; pair < 5; ++pair) {
    double cpu_s[2] = {0.0, 0.0};  // [spans off, spans on]
    for (int k = 0; k < 2; ++k) {
      const bool spans = (pair + k) % 2 == 0;
      SpanLog log(spans);
      const double cpu0 = ProcessCpuSeconds();
      pass(log);
      cpu_s[spans ? 1 : 0] = ProcessCpuSeconds() - cpu0;
    }
    extra.push_back(cpu_s[1] - cpu_s[0]);
  }
  return Median(extra);
}

std::uint64_t StatsField(const std::string& stats_line, const char* key) {
  const JsonValue json = sparsedet::ParseJson(stats_line);
  const JsonValue& stats = *json.Find("stats");
  const JsonValue* v = stats.Find(key);
  if (v == nullptr) v = stats.Find("cache")->Find(key);
  return static_cast<std::uint64_t>(v->AsDouble());
}

}  // namespace

Report RunTraced(const RunOptions& options) {
  Report report;
  SpanLog log;
  double overhead_s = 0.0;

  // ---- serve_cached: framing, JSON, request, cache, server ----
  {
    const ServeInput input =
        MakeServeInput(options.seed, kServeConnections, kServeLinesPerConnection);
    std::string primed;
    std::vector<std::string> warm, measured;
    std::vector<std::int64_t> latency_ns;
    sparsedet::obs::RegistrySnapshot registry;
    engine::LruResultCache::Counters server_cache;
    {
      ServeSession session(input);
      primed = session.Prime();
      session.RunRound(input.conn_lines, &warm, &latency_ns);
      latency_ns.clear();
      session.RunRound(input.conn_lines, &measured, &latency_ns);
      registry = session.engine().MetricsSnapshot();
      server_cache = session.engine().cache().counters();
    }
    std::vector<double> latency_us;
    for (std::int64_t ns : latency_ns) latency_us.push_back(static_cast<double>(ns) * 1e-3);

    // The primed lines, then both rounds of every connection, into an
    // empty cache, as the server saw them.
    std::vector<std::vector<std::string>> sent = {input.prime_lines};
    std::vector<std::vector<std::string>> got = {SplitLines(primed)};
    std::vector<std::string> prefixes = {"p"};
    for (const auto* round : {&warm, &measured}) {
      for (std::size_t c = 0; c < input.conn_lines.size(); ++c) {
        sent.push_back(input.conn_lines[c]);
        got.push_back(SplitLines((*round)[c]));
        prefixes.push_back("c" + std::to_string(c) + "-");
      }
    }
    auto serve_pass = [&](SpanLog& pass_log) {
      engine::LruResultCache cache(4096);
      RequestPathTotals total;
      for (std::size_t i = 0; i < sent.size(); ++i) {
        const RequestPathTotals t =
            TraceLines(sent[i], prefixes[i], got[i], cache, pass_log, &report);
        total.lines += t.lines;
        total.hits += t.hits;
        total.misses += t.misses;
        total.render_ns += t.render_ns;
        total.numbers += t.numbers;
      }
      return total;
    };
    const RequestPathTotals total = serve_pass(log);
    if (options.workload == "serve_cached") overhead_s = SpanOverheadS(serve_pass);
    report.Fail(CheckCount(total.hits, server_cache.hits, "traced vs server cache hits"));
    report.Fail(CheckCount(total.misses, server_cache.misses, "traced vs server cache misses"));
    report.attempted += total.lines;

    // Line framing over the same bytes, in 4 KiB reads as a socket delivers.
    std::string bytes;
    for (const auto& lines : input.conn_lines) bytes += JoinLines(lines);
    std::vector<double> per_line_ns;
    for (int pass = 0; pass < 20; ++pass) {
      sparsedet::framing::LineDecoder decoder(1 << 20);
      std::size_t decoded = 0;
      std::string line;
      bool truncated = false;
      const std::int64_t t0 = NowNs();
      {
        auto s = log.Open("framing.decode", -1, "decode-" + std::to_string(pass));
        for (std::size_t at = 0; at < bytes.size(); at += 4096) {
          decoder.Feed(bytes.data() + at, std::min<std::size_t>(4096, bytes.size() - at));
          while (decoder.Next(&line, &truncated)) ++decoded;
        }
      }
      per_line_ns.push_back(static_cast<double>(NowNs() - t0) /
                            static_cast<double>(decoded));
    }

    report.Add("json.parse_us", log.MedianUs("json.parse"), "us");
    report.Add("json.render_us", log.MedianUs("json.render"), "us");
    report.Add("json.render_ns_per_number",
               static_cast<double>(total.render_ns) / static_cast<double>(total.numbers),
               "ns");
    report.Add("framing.decode_ns_per_line", Median(per_line_ns), "ns");
    report.Add("request.parse_us", log.MedianUs("request.parse"), "us");
    report.Add("request.plan_us", log.MedianUs("request.plan"), "us");
    report.Add("request.compose_us", log.MedianUs("request.compose"), "us");
    report.Add("cache.lookup_us", log.MedianUs("cache.lookup"), "us");
    report.Add("cache.hit_ratio",
               static_cast<double>(total.hits) /
                   static_cast<double>(total.hits + total.misses),
               "ratio");
    report.Add("cache.hits", static_cast<double>(total.hits), "count");
    report.Add("cache.misses", static_cast<double>(total.misses), "count");
    report.Add("server.request_us", HistogramP50(registry, "server_request_us"), "us");
    report.Add("server.queue_wait_us", HistogramP50(registry, "server_queue_wait_us"), "us");
    report.Add("server.solve_us", HistogramP50(registry, "server_solve_us"), "us");
    report.Add("client.request_p50_us", Quantile(latency_us, 0.50), "us");
    report.Add("client.request_p99_us", Quantile(latency_us, 0.99), "us");
  }

  // ---- study_batch: evaluation, engine phases, memo, core, markov ----
  {
    const std::vector<StudyRequest> requests =
        MakeStudyInput(options.seed, kStudyRepeats);
    std::vector<std::string> lines;
    for (const StudyRequest& r : requests) lines.push_back(r.line);
    auto& memo = sparsedet::prob::MemoCache::Global();
    const sparsedet::prob::MemoCacheStats memo0 = memo.Stats();
    const BatchPass pass = RunBatchPass(JoinLines(lines), kStudyWorkers);
    const sparsedet::prob::MemoCacheStats memo1 = memo.Stats();

    // From an empty result cache and an empty memo, as the engine started.
    const std::vector<std::string> responses = SplitLines(pass.output);
    auto study_pass = [&](SpanLog& pass_log) {
      memo.Clear();
      engine::LruResultCache cache(4096);
      return TraceLines(lines, "s", responses, cache, pass_log, &report);
    };
    const RequestPathTotals total = study_pass(log);
    if (options.workload == "study_batch") overhead_s = SpanOverheadS(study_pass);
    report.Fail(CheckCount(total.units, StatsField(pass.stats_line, "units"),
                           "traced vs engine units"));
    report.Fail(CheckCount(total.hits, StatsField(pass.stats_line, "hits"),
                           "traced vs engine cache hits"));
    report.Fail(CheckCount(total.misses, StatsField(pass.stats_line, "misses"),
                           "traced vs engine cache misses"));
    report.attempted += total.units;

    // Core solver layers on the requests' base scenarios, memo off so
    // every call does its whole work.
    const std::size_t memo_capacity = memo.capacity();
    memo.SetCapacity(0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const sparsedet::SystemParams params = requests[i].scenario.Params();
      const std::string id = "core-" + std::to_string(i + 1);
      sparsedet::MsApproachResult ms;
      {
        auto s = log.Open("ms.analyze", -1, id);
        ms = sparsedet::MsApproachAnalyze(params);
      }
      const sparsedet::RegionDecomposition decomp(params.sensing_range,
                                                  params.target_speed,
                                                  params.period_length);
      {
        auto s = log.Open("region_pmf.capped", -1, id);
        sparsedet::CappedRegionReportPmf(params.num_nodes, params.FieldArea(),
                                         decomp.area_h(), params.detect_prob, 3);
      }
      {
        auto s = log.Open("s_approach.exact", -1, id);
        sparsedet::SApproachExactDetectionProbability(params);
      }
      std::vector<double> dist = ms.head_pmf.mass();
      dist.resize(static_cast<std::size_t>(ms.num_states), 0.0);
      {
        auto s = log.Open("markov.propagate", -1, id);
        sparsedet::PropagateIncrementSteps(dist, ms.body_pmf,
                                           params.window_periods - ms.ms - 1, false);
      }
    }
    memo.SetCapacity(memo_capacity);

    const std::uint64_t memo_hits = memo1.hits - memo0.hits;
    const std::uint64_t memo_misses = memo1.misses - memo0.misses;
    report.Add("request.evaluate_us", log.MedianUs("request.evaluate"), "us");
    report.Add("request.units", static_cast<double>(total.units), "count");
    report.Add("engine.queue_wait_us",
               1e-3 * HistogramP50(pass.registry, "sparsedet_phase_duration_ns", "queue_wait"), "us");
    report.Add("engine.solve_us",
               1e-3 * HistogramP50(pass.registry, "sparsedet_phase_duration_ns", "solve"), "us");
    report.Add("engine.serialize_us",
               1e-3 * HistogramP50(pass.registry, "sparsedet_phase_duration_ns", "serialize"), "us");
    report.Add("memo.hit_ratio",
               static_cast<double>(memo_hits) /
                   static_cast<double>(memo_hits + memo_misses),
               "ratio");
    report.Add("memo.misses", static_cast<double>(memo_misses), "count");
    report.Add("memo.bytes", static_cast<double>(memo1.bytes), "bytes");
    report.Add("ms.analyze_us", log.MedianUs("ms.analyze"), "us");
    report.Add("region_pmf.capped_us", log.MedianUs("region_pmf.capped"), "us");
    report.Add("s_approach.exact_us", log.MedianUs("s_approach.exact"), "us");
    report.Add("markov.propagate_us", log.MedianUs("markov.propagate"), "us");
  }

  // ---- simulate_mc: the Monte-Carlo trial loop ----
  {
    const std::vector<SimRequest> requests = MakeSimInput(options.seed, kSimTrials);
    std::vector<std::string> lines;
    for (const SimRequest& r : requests) lines.push_back(r.line);
    const BatchPass pass = RunBatchPass(JoinLines(lines), kSimWorkers);
    const std::vector<std::string> responses = SplitLines(pass.output);
    report.Fail(CheckCount(responses.size(), requests.size(), "simulate responses"));

    std::uint64_t response_trials = 0;
    std::vector<std::uint64_t> response_detections;
    for (const std::string& line : responses) {
      const JsonValue result = *sparsedet::ParseJson(line).Find("result");
      response_trials += static_cast<std::uint64_t>(result.Find("trials")->AsDouble());
      response_detections.push_back(
          static_cast<std::uint64_t>(result.Find("detections")->AsDouble()));
    }
    // Every trial of every request, on the per-trial RNG substreams the
    // engine uses; returns the trials run.
    auto sim_pass = [&](SpanLog& pass_log) {
      std::uint64_t trials = 0;
      for (std::size_t i = 0; i < requests.size() && i < responses.size(); ++i) {
        const SimRequest& r = requests[i];
        const std::string id = "m" + std::to_string(i + 1);
        sparsedet::TrialConfig config;
        config.params = r.scenario.Params();
        const sparsedet::StraightLineMotion straight;
        const sparsedet::RandomWalkMotion walk(std::numbers::pi / 4.0);
        config.motion = r.motion == "random-walk"
                            ? static_cast<const sparsedet::MotionModel*>(&walk)
                            : &straight;
        const sparsedet::Field field(config.params.field_width,
                                     config.params.field_height);
        const sparsedet::Rng base(r.sim_seed);
        std::uint64_t detections = 0;
        for (int t = 0; t < r.trials; ++t) {
          sparsedet::Rng rng = base.Substream(static_cast<std::uint64_t>(t));
          {
            auto s = pass_log.Open("sim.trial", -1, id);
            const sparsedet::TrialResult trial = sparsedet::RunTrial(config, rng);
            detections += trial.total_true_reports >= config.params.threshold_reports;
          }
          sparsedet::Rng deploy_rng = base.Substream(static_cast<std::uint64_t>(t));
          {
            auto s = pass_log.Open("sim.deploy", -1, id);
            sparsedet::DeployUniform(field, config.params.num_nodes, deploy_rng);
          }
          ++trials;
        }
        report.Fail(CheckCount(detections, response_detections[i],
                               id + " traced vs engine detections"));
      }
      return trials;
    };
    const std::uint64_t traced_trials = sim_pass(log);
    if (options.workload == "simulate_mc") overhead_s = SpanOverheadS(sim_pass);
    report.Fail(CheckCount(traced_trials, response_trials,
                           "traced trials vs response trials"));
    report.attempted += traced_trials;
    report.Add("sim.trial_us", log.MedianUs("sim.trial"), "us");
    report.Add("sim.deploy_us", log.MedianUs("sim.deploy"), "us");
    report.Add("sim.trials", static_cast<double>(traced_trials), "count");
  }

  report.Add("trace.overhead_s", overhead_s, "s");
  if (!options.trace_dir.empty()) {
    log.Write(options.trace_dir + "/spans-" + options.workload + "-" +
              std::to_string(options.seed) + ".jsonl");
  }
  return report;
}

}  // namespace perfbench
