#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>
#include <iostream>
#include <thread>
#include <vector>

#include "common/framing.h"
#include "harness.h"

namespace perfbench {

void Report::Fail(const std::vector<std::string>& found) {
  if (found.empty()) return;
  correct = false;
  problems.insert(problems.end(), found.begin(), found.end());
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching Python process when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[rank];
}

double RunReference(int threads) {
  auto kernel = [] {
    std::vector<std::uint64_t> table(8192, 1);  // 64 KiB
    std::uint64_t x = 88172645463325252ULL;
    double acc = 1.0;
    for (int i = 0; i < 800000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 8191] += x;
      acc = acc * 1.0000001 + static_cast<double>(table[(x >> 20) & 8191] & 7);
    }
    return acc;
  };
  std::vector<double> results(threads);
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> helpers;
  for (int i = 1; i < threads; ++i) {
    helpers.emplace_back([&results, &kernel, i] { results[i] = kernel(); });
  }
  results[0] = kernel();
  for (std::thread& t : helpers) t.join();
  const double cpu_s = (ProcessCpuSeconds() - cpu0) / threads;
  volatile double sink = 0.0;
  for (double r : results) sink = sink + r;
  return cpu_s;
}

void AddEndToEnd(const Timed& timed, double setup_cpu_s, RateStatistic rate_stat,
                 Report* report) {
  // Neighbouring load slows this host by 30-40% for seconds at a time.
  // Throughput: a neighbour only ever slows a round down, and even slow
  // phases leave quiet moments, so the fastest short round holds still;
  // rounds of half a second rarely fit in one, so their median holds
  // stiller than their fastest. CPU time
  // per op is inflated for whole phases (another guest on the same core),
  // and the reference kernel run just before each round is inflated by
  // about the same factor, so each round is scaled to the kernel's nominal
  // CPU time and the median over rounds is reported. kRefCpuS is the
  // kernel's per-thread CPU time in a quiet phase of the 4-vCPU host this
  // was tuned on; it sets the scale only, and cancels between commits
  // measured on one host. Set-up happens once per process, so its wall
  // time takes whatever phase it falls in; its CPU time, scaled by the
  // run's median reference run, does not. A median over all the run's
  // reference runs, not just the first few, keeps the kernel's own
  // round-to-round noise out of this one-sample metric.
  constexpr double kRefCpuS = 0.00225;
  std::vector<double> rate, cpu, ref_cpu;
  for (const Round& r : timed.rounds) {
    const double ops = static_cast<double>(r.ops);
    rate.push_back(ops / r.wall_s);
    cpu.push_back(1e6 * r.cpu_s / ops * (kRefCpuS / r.ref_cpu_s));
    ref_cpu.push_back(r.ref_cpu_s);
    report->attempted += r.ops;
  }
  report->Add("ops_per_s",
              rate_stat == RateStatistic::kFastest
                  ? *std::max_element(rate.begin(), rate.end())
                  : Median(rate),
              "ops/s");
  report->Add("cpu_us_per_op", Median(cpu), "us");
  report->Add("setup_s", setup_cpu_s * (kRefCpuS / Median(ref_cpu)), "s");
  report->Add("peak_rss_mb", timed.peak_rss_mb, "MB");
  std::cerr << "perfbench: " << timed.rounds.size() << " rounds; median ops/s "
            << Median(rate) << "; reference median " << 1e3 * Median(ref_cpu)
            << " ms CPU per thread; set-up " << 1e3 * setup_cpu_s
            << " ms CPU\n";
}

int ConnectLocal(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool RunClosedLoop(const std::vector<int>& fds,
                   const std::vector<std::vector<std::string>>& lines, int window,
                   std::vector<std::string>* received,
                   std::vector<std::int64_t>* latency_ns) {
  struct Conn {
    std::size_t sent = 0;
    std::size_t done = 0;
    std::vector<std::int64_t> sent_at;
  };
  std::vector<Conn> conns(fds.size());
  received->resize(fds.size());
  for (std::string& bytes : *received) bytes.clear();  // keeps the capacity
  std::string batch;
  // Sends connection c's next lines until `window` are in flight.
  auto send_more = [&](std::size_t c) {
    Conn& conn = conns[c];
    const std::size_t limit =
        std::min(lines[c].size(), conn.done + static_cast<std::size_t>(window));
    batch.clear();
    const std::int64_t now = NowNs();
    for (; conn.sent < limit; ++conn.sent) {
      batch += lines[c][conn.sent];
      batch += '\n';
      conn.sent_at[conn.sent] = now;
    }
    return batch.empty() ||
           sparsedet::framing::WriteAllFd(fds[c], batch.data(), batch.size());
  };
  for (std::size_t c = 0; c < fds.size(); ++c) {
    conns[c].sent_at.resize(lines[c].size());
    if (!send_more(c)) return false;
  }
  std::vector<pollfd> polled;
  std::vector<std::size_t> polled_conn;
  char buf[1 << 16];
  for (;;) {
    polled.clear();
    polled_conn.clear();
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (conns[c].done == lines[c].size()) continue;
      polled.push_back({fds[c], POLLIN, 0});
      polled_conn.push_back(c);
    }
    if (polled.empty()) return true;
    if (::poll(polled.data(), polled.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    for (std::size_t p = 0; p < polled.size(); ++p) {
      if (polled[p].revents == 0) continue;
      const std::size_t c = polled_conn[p];
      Conn& conn = conns[c];
      const ssize_t got = ::read(fds[c], buf, sizeof(buf));
      if (got <= 0) return false;
      const std::int64_t now = NowNs();
      for (ssize_t i = 0; i < got; ++i) {
        if (buf[i] != '\n') continue;
        if (conn.done == lines[c].size()) return false;  // more responses than requests
        latency_ns->push_back(now - conn.sent_at[conn.done]);
        ++conn.done;
      }
      (*received)[c].append(buf, static_cast<std::size_t>(got));
      if (!send_more(c)) return false;
    }
  }
}

}  // namespace perfbench
