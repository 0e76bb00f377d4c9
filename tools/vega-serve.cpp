//===- tools/vega-serve.cpp - The VEGA generation daemon ----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Long-running generation daemon: loads one .vega session artifact and
/// answers newline-delimited JSON-RPC 2.0 requests — over stdio by default,
/// or an AF_UNIX socket with --socket. Requests co-batch in the continuous
/// decode-step scheduler. See README "Serving" for the wire protocol and
/// request examples:
///
///   printf '%s\n' '{"id":1,"method":"generate","params":{"target":"RISCV"}}' |
///     vega-serve --session=warm.vega
///
/// With --router the process becomes a fleet front-end instead: shards are
/// other vega-serve daemons behind AF_UNIX sockets (repeatable
/// --shard=path) and/or in-process shards over the same artifact
/// (--local-shards=N); the target space is partitioned round-robin and
/// requests forward verbatim to the owning shard:
///
///   vega-serve --router --shard /tmp/s0.sock --shard /tmp/s1.sock
///   vega-serve --router --session=warm.vega --local-shards=2
///
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Router.h"
#include "serve/Server.h"
#include "support/ArgParse.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <vector>

using namespace vega;

int main(int argc, char **argv) {
  ArgParse Args("vega-serve",
                "continuous-batching JSON-RPC generation daemon over a .vega "
                "session");
  Args.addOption("session", "file.vega",
                 "session artifact to serve (required unless --router runs "
                 "on --shard sockets only)");
  Args.addOption("socket", "path",
                 "listen on an AF_UNIX socket instead of stdio");
  Args.addOption("jobs", "N", "Stage-3 generation lanes (default: auto)");
  Args.addOption("window", "N",
                 "most generations decoding concurrently (the scheduler's "
                 "admission window)", "8");
  Args.addOption("max-queue", "N",
                 "most requests waiting for admission before rejecting with "
                 "-32005 overloaded (0 = unbounded)", "64");
  Args.addFlag("router",
               "route across shards instead of serving one session");
  Args.addOption("shard", "path",
                 "AF_UNIX socket of a shard daemon (repeatable; --router)");
  Args.addOption("local-shards", "N",
                 "spin up N in-process shards over --session (--router)", "0");
  Args.addOption("shard-window", "N",
                 "most in-flight forwards per shard before -32005 (--router; "
                 "0 = unbounded)", "16");
  Args.addOption("trace-out", "file", "write a Chrome/Perfetto trace on exit");
  Args.addOption("metrics-out", "file", "write metrics on exit");
  Args.addOption("metrics-format", "json|prometheus",
                 "metrics-out format (default: by extension, .prom = "
                 "prometheus, else json)");
  Args.addOption("log-level", "level",
                 "NDJSON log level on stderr: debug|info|warn|error|off "
                 "(default: $VEGA_LOG or off)");
  Args.addOption("slow-ms", "ms",
                 "warn-log the span flight recorder of requests slower than "
                 "this many milliseconds (0 = off)", "0");
  Args.addFlag("stats", "print a text metrics summary on exit");
  Args.addFlag("verbose", "log scheduler/router notes to stderr");

  if (Status St = Args.parse(argc, argv); !St.isOk()) {
    std::fprintf(stderr, "vega-serve: %s\n%s", St.toString().c_str(),
                 Args.usage().c_str());
    return St.toExitCode();
  }
  const bool Router = Args.has("router");
  const std::vector<std::string> &ShardSockets = Args.getAll("shard");
  const int LocalShards = Args.getInt("local-shards", 0);
  const bool NeedsSession = !Router || LocalShards > 0;
  if (NeedsSession && !Args.has("session")) {
    Status St = Status::invalidArgument("--session=<file.vega> is required");
    std::fprintf(stderr, "vega-serve: %s\n%s", St.toString().c_str(),
                 Args.usage().c_str());
    return St.toExitCode();
  }
  if (Router && ShardSockets.empty() && LocalShards <= 0) {
    Status St = Status::invalidArgument(
        "--router needs --shard sockets and/or --local-shards=N");
    std::fprintf(stderr, "vega-serve: %s\n%s", St.toString().c_str(),
                 Args.usage().c_str());
    return St.toExitCode();
  }

  if (Args.has("trace-out"))
    obs::TraceRecorder::instance().setEnabled(true);
  if (Args.has("metrics-out") || Args.has("stats"))
    obs::MetricsRegistry::instance().setEnabled(true);
  if (Args.has("log-level")) {
    std::optional<obs::LogLevel> Level =
        obs::Logger::parseLevel(Args.get("log-level"));
    if (!Level) {
      std::fprintf(stderr, "vega-serve: unknown log level '%s'\n",
                   Args.get("log-level").c_str());
      return 2;
    }
    obs::Logger::instance().setLevel(*Level);
  }

  // Each local shard loads its own copy of the session, so every shard
  // gets the same lane setting.
  auto ConfigureSession = [&](VegaSession &Session) {
    if (Args.has("jobs"))
      Session.setJobs(Args.getInt("jobs", 0));
  };

  serve::ServerOptions Options;
  Options.Window = Args.getInt("window", 8);
  Options.MaxQueue = Args.getInt("max-queue", 64);
  Options.SlowMs = std::atof(Args.get("slow-ms").c_str());
  Options.Verbose = Args.has("verbose");

  Status ServeStatus = Status::ok();
  if (Router) {
    std::vector<std::unique_ptr<serve::ShardEndpoint>> Endpoints;
    for (size_t I = 0; I < ShardSockets.size(); ++I)
      Endpoints.push_back(std::make_unique<serve::SocketShard>(
          "socket" + std::to_string(I), ShardSockets[I]));
    for (int I = 0; I < LocalShards; ++I) {
      StatusOr<std::unique_ptr<VegaSession>> Session =
          VegaSession::load(Args.get("session"));
      if (!Session.isOk()) {
        std::fprintf(stderr, "vega-serve: %s\n",
                     Session.status().toString().c_str());
        return Session.status().toExitCode();
      }
      ConfigureSession(**Session);
      Endpoints.push_back(std::make_unique<serve::LocalShard>(
          "local" + std::to_string(I), std::move(Session.value()), Options));
    }
    serve::RouterOptions RouterOpts;
    RouterOpts.ShardWindow = Args.getInt("shard-window", 16);
    RouterOpts.Verbose = Args.has("verbose");
    serve::VegaRouter Fleet(std::move(Endpoints), RouterOpts);
    if (Status St = Fleet.init(); !St.isOk()) {
      std::fprintf(stderr, "vega-serve: %s\n", St.toString().c_str());
      return St.toExitCode();
    }
    if (RouterOpts.Verbose)
      std::fprintf(stderr,
                   "vega-serve: routing %zu targets across %zu shards on %s\n",
                   Fleet.shardMap().size(), Fleet.shardCount(),
                   Args.has("socket") ? Args.get("socket").c_str() : "stdio");
    ServeStatus = Args.has("socket") ? Fleet.serveSocket(Args.get("socket"))
                                     : Fleet.serveStream(std::cin, std::cout);
  } else {
    StatusOr<std::unique_ptr<VegaSession>> Session =
        VegaSession::load(Args.get("session"));
    if (!Session.isOk()) {
      std::fprintf(stderr, "vega-serve: %s\n",
                   Session.status().toString().c_str());
      return Session.status().toExitCode();
    }
    ConfigureSession(**Session);
    if (Options.Verbose)
      std::fprintf(stderr, "vega-serve: session '%s' loaded, serving on %s\n",
                   Args.get("session").c_str(),
                   Args.has("socket") ? Args.get("socket").c_str() : "stdio");
    serve::VegaServer Server(**Session, Options);
    ServeStatus = Args.has("socket") ? Server.serveSocket(Args.get("socket"))
                                     : Server.serveStream(std::cin, std::cout);
  }
  if (!ServeStatus.isOk())
    std::fprintf(stderr, "vega-serve: %s\n", ServeStatus.toString().c_str());

  int Rc = ServeStatus.toExitCode();
  if (Args.has("trace-out") &&
      !obs::TraceRecorder::instance().writeChromeTrace(Args.get("trace-out"))) {
    std::fprintf(stderr, "vega-serve: error: cannot write trace to '%s'\n",
                 Args.get("trace-out").c_str());
    Rc = Rc ? Rc : 1;
  }
  if (Args.has("metrics-out")) {
    const std::string &Path = Args.get("metrics-out");
    std::string Format = Args.get("metrics-format");
    if (Format.empty())
      Format = Path.size() >= 5 && Path.rfind(".prom") == Path.size() - 5
                   ? "prometheus"
                   : "json";
    auto &Metrics = obs::MetricsRegistry::instance();
    bool Written = Format == "prometheus" ? Metrics.writePrometheus(Path)
                                          : Metrics.writeJson(Path);
    if (!Written) {
      std::fprintf(stderr, "vega-serve: error: cannot write metrics to '%s'\n",
                   Path.c_str());
      Rc = Rc ? Rc : 1;
    }
  }
  if (Args.has("stats"))
    std::printf("%s", obs::MetricsRegistry::instance().textSummary().c_str());
  return Rc;
}
