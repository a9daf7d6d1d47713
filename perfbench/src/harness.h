// Shared declarations of the sparsedet end-to-end benchmark harness.
//
// The harness links the repository's libraries and drives them the way
// users do: batch studies through BatchEngine::RunBatch, cached analyze
// traffic through an in-process server::TcpServer, and Monte-Carlo
// simulate requests through the batch path. Every input is generated from
// the --seed argument; the program under test only ever sees those inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/params.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "server/tcp_server.h"

namespace perfbench {

// ---- Generated inputs -----------------------------------------------------

// One scenario of a generated request, kept beside the JSONL line so the
// output checks know what was asked without re-parsing the line.
struct Scenario {
  int nodes = 60;
  double rs = 1000.0;
  double speed = 10.0;
  int window = 20;
  int k = 5;
  double pd = 0.9;

  sparsedet::SystemParams Params() const;
  // The "params" object of a request line.
  std::string Json() const;
};

struct StudyRequest {
  std::string op;  // "sweep" | "analyze"
  Scenario scenario;
  std::string sweep_param;  // sweep only: nodes | rs | speed | window
  double from = 0.0, to = 0.0, step = 0.0;
  int k_group = -1;  // analyze only: requests sharing a group differ in k
  std::string line;
};

struct SimRequest {
  Scenario scenario;
  std::string motion;  // straight | random-walk
  int trials = 0;
  std::uint64_t sim_seed = 0;
  std::string line;
};

// study_batch: disjoint sweeps over nodes / rs / speed / window plus
// k-graded analyze triples. `repeats` scales the request count.
std::vector<StudyRequest> MakeStudyInput(std::uint64_t seed, int repeats);

// serve_cached: the fixed scenario set and, per connection, the order in
// which its requests cycle through that set.
struct ServeInput {
  std::vector<Scenario> scenarios;
  std::vector<std::string> prime_lines;  // one line per scenario
  std::vector<std::vector<std::string>> conn_lines;
};
ServeInput MakeServeInput(std::uint64_t seed, int connections,
                          int lines_per_connection);

// simulate_mc: the paper's N x V x motion grid.
std::vector<SimRequest> MakeSimInput(std::uint64_t seed, int trials);

// Lines joined with '\n' terminators, as a JSONL stream, and back.
std::string JoinLines(const std::vector<std::string>& lines);
std::vector<std::string> SplitLines(const std::string& text);

// ---- Measurement ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed output checks, for stderr

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records failed checks; any failure makes the run incorrect.
  void Fail(const std::vector<std::string>& found);
};

// One timed round: the same fixed work from the same starting state.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time over the round, all threads
  std::uint64_t ops = 0;
  double ref_cpu_s = 0.0;  // the reference run just before the round
};

std::int64_t NowNs();                 // steady clock
double ProcessCpuSeconds();           // CLOCK_PROCESS_CPUTIME_ID
double PeakRssMb();                   // VmHWM of /proc/self/status
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);  // nearest rank

// A fixed integer and floating-point kernel run on `threads` threads at
// once; returns the process CPU seconds it took per thread. It shares no
// code with the program, so no change to the program moves it; only the
// host's speed does. Each workload runs it on as many threads as it keeps
// busy.
double RunReference(int threads);

// The rounds TimeRounds makes in every run, however short; peak_rss_mb
// may be read after them.
inline constexpr std::size_t kFixedRounds = 3;

struct Timed {
  std::vector<Round> rounds;
  double peak_rss_mb = 0.0;  // VmHWM after `rss_rounds` rounds
};

// Runs `round_fn` (which times its own fixed work and returns the Round)
// until `seconds` have passed, and at least kFixedRounds times, each round
// just after a reference run on `ref_threads` threads. Whole rounds only,
// so `attempted` is always a multiple of the round size. VmHWM is read
// after `rss_rounds` (at most kFixedRounds) rounds; 0 reads it before the
// first, when set-up has ended.
template <typename RoundFn>
Timed TimeRounds(double seconds, int ref_threads, std::size_t rss_rounds,
                 RoundFn&& round_fn) {
  Timed timed;
  if (rss_rounds == 0) timed.peak_rss_mb = PeakRssMb();
  const std::int64_t start = NowNs();
  while (timed.rounds.size() < kFixedRounds ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    const double ref_cpu_s = RunReference(ref_threads);
    timed.rounds.push_back(round_fn());
    timed.rounds.back().ref_cpu_s = ref_cpu_s;
    if (timed.rounds.size() == rss_rounds) timed.peak_rss_mb = PeakRssMb();
  }
  return timed;
}

// How ops_per_s sums up the rounds: the fastest round, where rounds are
// short enough that some fall wholly within a quiet moment of the host,
// or the median round, where rounds are too long for that.
enum class RateStatistic { kFastest, kMedian };

// Appends ops_per_s (by `rate`), cpu_us_per_op (the median over rounds,
// each scaled by its reference run), setup_s (`setup_cpu_s`, the process
// CPU time when set-up ended, scaled by the median reference run) and
// peak_rss_mb, and sets `attempted`.
void AddEndToEnd(const Timed& timed, double setup_cpu_s, RateStatistic rate,
                 Report* report);

// ---- TCP load -------------------------------------------------------------

int ConnectLocal(int port);  // -1 on failure

// Closed loop from one thread over several connections: keeps `window`
// requests in flight on each, sending connection c's next line from
// lines[c] whenever one of its responses arrives. received[c] gets every
// byte connection c received, replacing what it held but keeping its
// capacity; latency_ns gets one send-to-receive time per response. False
// when a connection fails before all its responses.
bool RunClosedLoop(const std::vector<int>& fds,
                   const std::vector<std::vector<std::string>>& lines, int window,
                   std::vector<std::string>* received,
                   std::vector<std::int64_t>* latency_ns);

// ---- Real-path passes, shared by the timed and the traced runs -------------

// One RunBatch pass over `stream` by a fresh engine with `workers` threads,
// starting from an empty solver memo cache.
struct BatchPass {
  Round round;             // ops = work units planned
  std::string output;      // response lines
  std::string stats_line;  // the engine's {"stats": ...} line
  sparsedet::obs::RegistrySnapshot registry;
};
BatchPass RunBatchPass(const std::string& stream, std::size_t workers);

// An in-process TcpServer with its engine and the benchmark's client
// connections; the destructor closes the connections and drains the server.
class ServeSession {
 public:
  explicit ServeSession(const ServeInput& input);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // Sends each scenario once, one at a time, so the result cache holds
  // every scenario with exactly one miss each. Returns the response bytes.
  std::string Prime();
  // One closed-loop round over every connection at once, connection c
  // sending lines[c]; received[c] gets its response bytes. ops = responses
  // received.
  Round RunRound(const std::vector<std::vector<std::string>>& lines,
                 std::vector<std::string>* received,
                 std::vector<std::int64_t>* latency_ns);
  sparsedet::engine::BatchEngine& engine() { return *engine_; }

 private:
  void Stop();  // closes the connections, drains the server, joins its loop

  const ServeInput& input_;
  std::unique_ptr<sparsedet::engine::BatchEngine> engine_;
  std::unique_ptr<sparsedet::server::TcpServer> server_;
  std::thread loop_;
  std::vector<int> fds_;
};

// What the stdio `serve` loop answers to `lines`, by a fresh engine.
std::string StdioServe(const std::vector<std::string>& lines);

// ---- Workloads ------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

Report RunStudyBatch(const RunOptions& options);
Report RunServeCached(const RunOptions& options);
Report RunSimulateMc(const RunOptions& options);
// The traced run: every layer's public functions in sequence on the
// generated inputs of every workload, cross-checked against an untraced
// pass of the real path.
Report RunTraced(const RunOptions& options);

// Workload sizes, shared by the untraced and traced runs so both see the
// same inputs.
inline constexpr int kStudyRepeats = 6;
inline constexpr int kStudyWorkers = 2;
inline constexpr int kServeConnections = 2;
inline constexpr int kServeWindow = 64;
inline constexpr int kServeLinesPerConnection = 3072;
inline constexpr int kSimTrials = 50;
inline constexpr int kSimWorkers = 2;

}  // namespace perfbench
