//===- bench/serve_load.cpp - Concurrent-client serve latency ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Load generator for vega-serve: spins up a VegaServer over a
/// bench-trained session and drives it with 1/8/64 concurrent clients
/// issuing `generate` requests round-robin over the held-out evaluation
/// targets — requests co-batch in the continuous-batching scheduler.
/// Latency is measured client-side (submit to response, queue wait
/// included). One batch of a level takes well under a second, so each
/// level repeats its batch for at least MinRounds rounds and MinLevelSec
/// of wall time; it reports the median backends/sec over its rounds with
/// the quartiles, and p50/p95/p99 over the pooled latencies.
/// Every response is checked byte-identical to the first response seen for
/// its target, so concurrency cannot change generated backends.
///
/// After the sweep it cross-checks the `stats` RPC against the Prometheus
/// exposition — both must agree on the request count. Writes
/// BENCH_serve.json ("vega-serve-bench-3").
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/VegaSession.h"
#include "obs/Metrics.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/TextTable.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace vega;

namespace {

/// Every level repeats its batch until both bounds are met.
constexpr int MinRounds = 5;
constexpr double MinLevelSec = 1.0;

/// Nearest-rank quantile over a sorted sample (0 when empty).
double quantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

struct LevelResult {
  int Clients = 0;
  int Rounds = 0;
  size_t Requests = 0; ///< over all rounds
  size_t Ok = 0;
  size_t Errors = 0;
  double WallSec = 0.0; ///< over all rounds
  /// Successful backends per second of each round: median and quartiles.
  double PerSecQ1 = 0.0, PerSec = 0.0, PerSecQ3 = 0.0;
  double P50Ms = 0.0, P95Ms = 0.0, P99Ms = 0.0;
};

Json levelsToJson(const std::vector<LevelResult> &Results) {
  Json LevelsJson = Json::array();
  for (const LevelResult &Level : Results) {
    Json L = Json::object();
    L.set("clients", Level.Clients);
    L.set("rounds", Level.Rounds);
    L.set("requests", static_cast<uint64_t>(Level.Requests));
    L.set("ok", static_cast<uint64_t>(Level.Ok));
    L.set("errors", static_cast<uint64_t>(Level.Errors));
    L.set("wallSec", Level.WallSec);
    L.set("backendsPerSec", Level.PerSec);
    L.set("backendsPerSecQ1", Level.PerSecQ1);
    L.set("backendsPerSecQ3", Level.PerSecQ3);
    L.set("p50Ms", Level.P50Ms);
    L.set("p95Ms", Level.P95Ms);
    L.set("p99Ms", Level.P99Ms);
    LevelsJson.push(std::move(L));
  }
  return LevelsJson;
}

} // namespace

int main(int argc, char **argv) {
  std::string ReportPath = "BENCH_serve.json";
  std::vector<int> Levels = {1, 8, 64};
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const std::string ReportPrefix = "--report=";
    const std::string ClientsPrefix = "--clients=";
    if (Arg.rfind(ReportPrefix, 0) == 0) {
      ReportPath = Arg.substr(ReportPrefix.size());
    } else if (Arg.rfind(ClientsPrefix, 0) == 0) {
      Levels.clear();
      std::string List = Arg.substr(ClientsPrefix.size());
      size_t Pos = 0;
      while (Pos < List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        int N = std::atoi(List.substr(Pos, Comma - Pos).c_str());
        if (N > 0)
          Levels.push_back(N);
        Pos = Comma + 1;
      }
    }
  }
  if (Levels.empty())
    Levels = {1, 8, 64};

  bench::initObservability();

  // The daemon serves the bench model, loaded from the artifact the other
  // benches share (bench::system() trains and saves it when absent), so
  // results are comparable run to run.
  const std::string Artifact = bench::artifactPath(bench::system().options());
  StatusOr<std::unique_ptr<VegaSession>> Session = VegaSession::load(Artifact);
  if (!Session.isOk()) {
    std::fprintf(stderr, "serve_load: %s\n",
                 Session.status().toString().c_str());
    return Session.status().toExitCode();
  }

  serve::ServerOptions ServerOpts; // Window 8 / MaxQueue 64, daemon defaults
  serve::VegaServer Server(**Session, ServerOpts);

  const std::vector<std::string> Targets =
      TargetDatabase::evaluationTargetNames();

  // Byte-determinism watchdog: the first response seen per target is the
  // reference; any later divergence — across clients or concurrency
  // levels — is a correctness failure.
  std::mutex RefMu;
  std::map<std::string, std::string> Reference;
  std::atomic<bool> Deterministic{true};

  // One batch: every client issues PerClient requests; returns the batch's
  // wall seconds and adds its latencies and errors.
  auto RunBatch = [&](int Clients, size_t PerClient,
                      std::vector<double> &Latencies,
                      std::atomic<size_t> &ErrorCount) {
    std::vector<std::vector<double>> PerThread(static_cast<size_t>(Clients));
    auto WallStart = std::chrono::steady_clock::now();
    std::vector<std::thread> Pool;
    for (int C = 0; C < Clients; ++C)
      Pool.emplace_back([&, C, PerClient] {
        for (size_t R = 0; R < PerClient; ++R) {
          size_t Seq = static_cast<size_t>(C) * PerClient + R;
          const std::string &Target = Targets[Seq % Targets.size()];
          std::string Request =
              "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(Seq) +
              ",\"method\":\"generate\",\"params\":{\"target\":\"" +
              Target + "\"}}";
          auto T0 = std::chrono::steady_clock::now();
          std::string Response = Server.handleLine(Request);
          PerThread[static_cast<size_t>(C)].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count());
          if (Response.find("\"error\"") != std::string::npos) {
            ErrorCount.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Responses embed the request id; strip it before comparing
          // so every response to one target must match byte for byte.
          size_t IdPos = Response.find("\"id\":");
          size_t IdEnd = Response.find(',', IdPos);
          std::string Canon =
              IdPos == std::string::npos || IdEnd == std::string::npos
                  ? Response
                  : Response.substr(0, IdPos) + Response.substr(IdEnd + 1);
          std::lock_guard<std::mutex> Lock(RefMu);
          auto [It, Inserted] = Reference.emplace(Target, Canon);
          if (!Inserted && It->second != Canon)
            Deterministic.store(false, std::memory_order_relaxed);
        }
      });
    for (std::thread &T : Pool)
      T.join();
    for (const std::vector<double> &L : PerThread)
      Latencies.insert(Latencies.end(), L.begin(), L.end());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         WallStart)
        .count();
  };

  auto SweepLevel = [&](int Clients) {
    // Total volume stays bounded as concurrency grows: every batch
    // issues at least one request per client.
    size_t PerClient = std::max<size_t>(1, 16 / static_cast<size_t>(Clients));
    const size_t Batch = PerClient * static_cast<size_t>(Clients);
    LevelResult Level;
    Level.Clients = Clients;

    std::vector<double> Latencies, Rates;
    std::atomic<size_t> ErrorCount{0};
    while (Level.Rounds < MinRounds || Level.WallSec < MinLevelSec) {
      const size_t ErrorsBefore = ErrorCount.load();
      const double Sec = RunBatch(Clients, PerClient, Latencies, ErrorCount);
      const size_t Ok = Batch - (ErrorCount.load() - ErrorsBefore);
      Rates.push_back(Sec > 0.0 ? static_cast<double>(Ok) / Sec : 0.0);
      Level.WallSec += Sec;
      Level.Requests += Batch;
      ++Level.Rounds;
    }
    std::sort(Latencies.begin(), Latencies.end());
    std::sort(Rates.begin(), Rates.end());
    Level.Errors = ErrorCount.load();
    Level.Ok = Level.Requests - Level.Errors;
    Level.PerSecQ1 = quantile(Rates, 0.25);
    Level.PerSec = quantile(Rates, 0.50);
    Level.PerSecQ3 = quantile(Rates, 0.75);
    Level.P50Ms = quantile(Latencies, 0.50);
    Level.P95Ms = quantile(Latencies, 0.95);
    Level.P99Ms = quantile(Latencies, 0.99);
    return Level;
  };

  std::vector<LevelResult> Results;
  size_t Issued = 0;
  for (int Clients : Levels) {
    Results.push_back(SweepLevel(Clients));
    Issued += Results.back().Requests;
  }

  // Cross-check the two live views: the `stats` RPC (which counts itself)
  // and the Prometheus exposition, read immediately after, must agree.
  std::string StatsLine = Server.handleLine(
      "{\"jsonrpc\":\"2.0\",\"id\":\"stats\",\"method\":\"stats\"}");
  double StatsRequests = -1.0;
  if (StatusOr<Json> Stats = Json::parse(StatsLine); Stats.isOk())
    if (const Json *Result = Stats->get("result"))
      StatsRequests = Result->getNumber("requests");
  double PromRequests = -2.0;
  std::string Prom = obs::MetricsRegistry::instance().exportPrometheus();
  const std::string Series = "vega_serve_requests_total ";
  if (size_t Pos = Prom.find("\n" + Series); Pos != std::string::npos)
    PromRequests = std::atof(Prom.c_str() + Pos + 1 + Series.size());
  bool StatsAgree = StatsRequests == PromRequests &&
                    StatsRequests == static_cast<double>(Issued + 1);

  TextTable Table;
  Table.setHeader({"Clients", "Rounds", "Requests", "Errors", "Wall s",
                   "backends/s (Q1-Q3)", "p50 ms", "p95 ms", "p99 ms"});
  for (const LevelResult &Level : Results) {
    Table.addRow({std::to_string(Level.Clients),
                  std::to_string(Level.Rounds),
                  std::to_string(Level.Requests),
                  std::to_string(Level.Errors),
                  TextTable::formatDouble(Level.WallSec),
                  TextTable::formatDouble(Level.PerSec) + " (" +
                      TextTable::formatDouble(Level.PerSecQ1) + "-" +
                      TextTable::formatDouble(Level.PerSecQ3) + ")",
                  TextTable::formatDouble(Level.P50Ms),
                  TextTable::formatDouble(Level.P95Ms),
                  TextTable::formatDouble(Level.P99Ms)});
  }
  std::printf("== serve latency (continuous batching) ==\n%s\n",
              Table.render().c_str());
  std::printf("stats rpc requests=%.0f, prometheus requests=%.0f, "
              "issued=%zu (+1 stats call) -> %s; responses %s\n",
              StatsRequests, PromRequests, Issued,
              StatsAgree ? "agree" : "DISAGREE",
              Deterministic.load() ? "byte-identical per target" : "DIVERGED");

  Json Doc = Json::object();
  Doc.set("schema", "vega-serve-bench-3");
  Doc.set("host", bench::hostInfo());
  Doc.set("epochs", bench::defaultEpochs());
  Doc.set("window", ServerOpts.Window);
  Doc.set("maxQueue", ServerOpts.MaxQueue);
  Doc.set("levels", levelsToJson(Results));
  Json StatsJson = Json::object();
  StatsJson.set("serveRequests", StatsRequests);
  StatsJson.set("prometheusRequests", PromRequests);
  StatsJson.set("agree", StatsAgree);
  Doc.set("stats", std::move(StatsJson));
  Doc.set("deterministic", Deterministic.load());

  int Rc = StatsAgree && Deterministic.load() ? 0 : 1;
  if (FILE *F = std::fopen(ReportPath.c_str(), "w")) {
    std::string Dump = Doc.dump(2);
    std::fwrite(Dump.data(), 1, Dump.size(), F);
    std::fputc('\n', F);
    std::fclose(F);
    std::printf("report written to %s\n", ReportPath.c_str());
  } else {
    std::fprintf(stderr, "serve_load: cannot write %s\n", ReportPath.c_str());
    Rc = 1;
  }
  return Rc;
}
