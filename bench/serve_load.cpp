//===- bench/serve_load.cpp - Concurrent-client serve latency ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Load generator for the vega-serve fleet: spins up a VegaServer over a
/// bench-trained session and drives it with 1/8/64 concurrent clients
/// issuing `generate` requests round-robin over the held-out evaluation
/// targets — requests co-batch in the continuous decode-step scheduler.
/// Latency is measured client-side (submit to response, queue wait
/// included); per level the bench reports p50/p95/p99 and backends/sec.
///
/// A second sweep drives the same load through a VegaRouter fronting two
/// in-process shards (each with its own session loaded from the bench
/// artifact), exercising the shard map, verbatim forwarding, and per-shard
/// admission. Every response — single-server or routed — is
/// checked byte-identical to the first response seen for its target, so
/// the fleet cannot change generated backends.
///
/// After the single-server sweep it cross-checks the `stats` RPC against
/// the Prometheus exposition — both must agree on the request count.
/// Writes BENCH_serve.json ("vega-serve-bench-2").
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/VegaSession.h"
#include "obs/Metrics.h"
#include "serve/Router.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/TextTable.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace vega;

namespace {

/// Nearest-rank quantile over a sorted sample (0 when empty).
double quantileMs(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

struct LevelResult {
  int Clients = 0;
  size_t Requests = 0;
  size_t Ok = 0;
  size_t Errors = 0;
  double WallSec = 0.0;
  double P50Ms = 0.0, P95Ms = 0.0, P99Ms = 0.0;
};

Json levelsToJson(const std::vector<LevelResult> &Results) {
  Json LevelsJson = Json::array();
  for (const LevelResult &Level : Results) {
    Json L = Json::object();
    L.set("clients", Level.Clients);
    L.set("requests", static_cast<uint64_t>(Level.Requests));
    L.set("ok", static_cast<uint64_t>(Level.Ok));
    L.set("errors", static_cast<uint64_t>(Level.Errors));
    L.set("wallSec", Level.WallSec);
    L.set("backendsPerSec",
          Level.WallSec > 0.0
              ? static_cast<double>(Level.Ok) / Level.WallSec
              : 0.0);
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
  // reference; any later divergence — across clients, concurrency levels,
  // or the single-server/router boundary — is a correctness failure.
  std::mutex RefMu;
  std::map<std::string, std::string> Reference;
  std::atomic<bool> Deterministic{true};

  auto SweepLevel =
      [&](const std::function<std::string(const std::string &)> &Send,
          int Clients) {
        // Total volume stays bounded as concurrency grows: every level
        // issues at least one request per client.
        size_t PerClient =
            std::max<size_t>(1, 16 / static_cast<size_t>(Clients));
        LevelResult Level;
        Level.Clients = Clients;
        Level.Requests = PerClient * static_cast<size_t>(Clients);

        std::vector<std::vector<double>> Latencies(
            static_cast<size_t>(Clients));
        std::atomic<size_t> ErrorCount{0};
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
              std::string Response = Send(Request);
              Latencies[static_cast<size_t>(C)].push_back(
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
        Level.WallSec = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - WallStart)
                            .count();

        std::vector<double> All;
        for (const std::vector<double> &L : Latencies)
          All.insert(All.end(), L.begin(), L.end());
        std::sort(All.begin(), All.end());
        Level.Errors = ErrorCount.load();
        Level.Ok = Level.Requests - Level.Errors;
        Level.P50Ms = quantileMs(All, 0.50);
        Level.P95Ms = quantileMs(All, 0.95);
        Level.P99Ms = quantileMs(All, 0.99);
        return Level;
      };

  auto RenderTable = [](const std::vector<LevelResult> &Results) {
    TextTable Table;
    Table.setHeader({"Clients", "Requests", "Errors", "Wall s", "backends/s",
                     "p50 ms", "p95 ms", "p99 ms"});
    for (const LevelResult &Level : Results) {
      double PerSec = Level.WallSec > 0.0
                          ? static_cast<double>(Level.Ok) / Level.WallSec
                          : 0.0;
      Table.addRow({std::to_string(Level.Clients),
                    std::to_string(Level.Requests),
                    std::to_string(Level.Errors),
                    TextTable::formatDouble(Level.WallSec),
                    TextTable::formatDouble(PerSec),
                    TextTable::formatDouble(Level.P50Ms),
                    TextTable::formatDouble(Level.P95Ms),
                    TextTable::formatDouble(Level.P99Ms)});
    }
    return Table.render();
  };

  // ---- Sweep 1: one shard, continuous batching. ----
  std::vector<LevelResult> SingleResults;
  size_t SingleIssued = 0;
  for (int Clients : Levels) {
    SingleResults.push_back(SweepLevel(
        [&](const std::string &Line) { return Server.handleLine(Line); },
        Clients));
    SingleIssued += SingleResults.back().Requests;
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
                    StatsRequests == static_cast<double>(SingleIssued + 1);

  // ---- Sweep 2: a router fronting two in-process shards. Each shard
  // loads its own session from the bench artifact, so routed responses
  // must be byte-identical to the single-server references. ----
  std::vector<LevelResult> RouterResults;
  std::vector<uint64_t> Forwards;
  bool RouterReady = false;
  size_t RouterTargets = 0;
  std::vector<std::unique_ptr<serve::ShardEndpoint>> Endpoints;
  Status ShardStatus = Status::ok();
  for (int I = 0; I < 2 && ShardStatus.isOk(); ++I) {
    StatusOr<std::unique_ptr<VegaSession>> ShardSession =
        VegaSession::load(Artifact);
    if (!ShardSession.isOk()) {
      ShardStatus = ShardSession.status();
      break;
    }
    Endpoints.push_back(std::make_unique<serve::LocalShard>(
        "local" + std::to_string(I), std::move(ShardSession.value()),
        ServerOpts));
  }
  if (!ShardStatus.isOk()) {
    std::fprintf(stderr, "serve_load: cannot load shard session: %s\n",
                 ShardStatus.toString().c_str());
  } else {
    serve::RouterOptions RouterOpts;
    RouterOpts.ShardWindow = 0; // the bench saturates; let shards queue
    serve::VegaRouter Fleet(std::move(Endpoints), RouterOpts);
    if (Status St = Fleet.init(); !St.isOk()) {
      std::fprintf(stderr, "serve_load: router init: %s\n",
                   St.toString().c_str());
    } else {
      RouterReady = true;
      RouterTargets = Fleet.shardMap().size();
      for (int Clients : Levels)
        RouterResults.push_back(SweepLevel(
            [&](const std::string &Line) { return Fleet.handleLine(Line); },
            Clients));
      for (size_t I = 0; I < Fleet.shardCount(); ++I)
        Forwards.push_back(Fleet.forwardCount(I));
    }
  }
  bool AllShardsServed =
      RouterReady && Forwards.size() == 2 && Forwards[0] > 0 && Forwards[1] > 0;

  std::printf("== serve latency, one shard (continuous batching) ==\n%s\n",
              RenderTable(SingleResults).c_str());
  if (RouterReady)
    std::printf("== serve latency, router over 2 local shards ==\n%s\n",
                RenderTable(RouterResults).c_str());
  std::printf("stats rpc requests=%.0f, prometheus requests=%.0f, "
              "issued=%zu (+1 stats call) -> %s; responses %s; "
              "router forwards=[%s]\n",
              StatsRequests, PromRequests, SingleIssued,
              StatsAgree ? "agree" : "DISAGREE",
              Deterministic.load() ? "byte-identical per target" : "DIVERGED",
              [&] {
                std::string S;
                for (size_t I = 0; I < Forwards.size(); ++I)
                  S += (I ? "," : "") + std::to_string(Forwards[I]);
                return S;
              }()
                  .c_str());

  Json Doc = Json::object();
  Doc.set("schema", "vega-serve-bench-2");
  Doc.set("host", bench::hostInfo());
  Doc.set("epochs", bench::defaultEpochs());
  Doc.set("window", ServerOpts.Window);
  Doc.set("maxQueue", ServerOpts.MaxQueue);
  {
    Json Single = Json::object();
    Single.set("levels", levelsToJson(SingleResults));
    Doc.set("single", std::move(Single));
  }
  {
    Json Router = Json::object();
    Router.set("ready", RouterReady);
    Router.set("shards", 2);
    Router.set("targets", static_cast<uint64_t>(RouterTargets));
    Json ForwardJson = Json::array();
    for (uint64_t F : Forwards)
      ForwardJson.push(F);
    Router.set("forwards", std::move(ForwardJson));
    Router.set("allShardsServed", AllShardsServed);
    Router.set("levels", levelsToJson(RouterResults));
    Doc.set("router", std::move(Router));
  }
  Json StatsJson = Json::object();
  StatsJson.set("serveRequests", StatsRequests);
  StatsJson.set("prometheusRequests", PromRequests);
  StatsJson.set("agree", StatsAgree);
  Doc.set("stats", std::move(StatsJson));
  Doc.set("deterministic", Deterministic.load());

  int Rc = StatsAgree && Deterministic.load() && RouterReady &&
                   AllShardsServed
               ? 0
               : 1;
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
