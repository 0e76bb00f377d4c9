//===- tools/vega-serve.cpp - The VEGA generation daemon ----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Long-running generation daemon: loads one .vega session artifact and
/// answers newline-delimited JSON-RPC 2.0 requests — over stdio by default,
/// or an AF_UNIX socket with --socket. Requests co-batch in the
/// continuous-batching scheduler. See README "Serving" for the wire
/// protocol and request examples:
///
///   printf '%s\n' '{"id":1,"method":"generate","params":{"target":"RISCV"}}' |
///     vega-serve --session=warm.vega
///
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Server.h"
#include "support/ArgParse.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>

using namespace vega;

int main(int argc, char **argv) {
  ArgParse Args("vega-serve",
                "continuous-batching JSON-RPC generation daemon over a .vega "
                "session");
  Args.addOption("session", "file.vega",
                 "session artifact to serve (required)");
  Args.addOption("socket", "path",
                 "listen on an AF_UNIX socket instead of stdio");
  Args.addOption("jobs", "N", "Stage-3 generation lanes (default: auto)");
  Args.addOption("window", "N",
                 "most generations decoding concurrently (the scheduler's "
                 "admission window)", "8");
  Args.addOption("max-queue", "N",
                 "most requests waiting for admission before rejecting with "
                 "-32005 overloaded (0 = unbounded)", "64");
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
  Args.addFlag("verbose", "log a startup note to stderr");

  if (Status St = Args.parse(argc, argv); !St.isOk()) {
    std::fprintf(stderr, "vega-serve: %s\n%s", St.toString().c_str(),
                 Args.usage().c_str());
    return St.toExitCode();
  }
  if (!Args.has("session")) {
    Status St = Status::invalidArgument("--session=<file.vega> is required");
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

  StatusOr<std::unique_ptr<VegaSession>> Session =
      VegaSession::load(Args.get("session"));
  if (!Session.isOk()) {
    std::fprintf(stderr, "vega-serve: %s\n",
                 Session.status().toString().c_str());
    return Session.status().toExitCode();
  }
  if (Args.has("jobs"))
    (*Session)->setJobs(Args.getInt("jobs", 0));

  serve::ServerOptions Options;
  Options.Window = Args.getInt("window", 8);
  Options.MaxQueue = Args.getInt("max-queue", 64);
  Options.SlowMs = std::atof(Args.get("slow-ms").c_str());
  if (Args.has("verbose"))
    std::fprintf(stderr, "vega-serve: session '%s' loaded, serving on %s\n",
                 Args.get("session").c_str(),
                 Args.has("socket") ? Args.get("socket").c_str() : "stdio");
  serve::VegaServer Server(**Session, Options);
  Status ServeStatus = Args.has("socket")
                           ? Server.serveSocket(Args.get("socket"))
                           : Server.serveStream(std::cin, std::cout);
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
