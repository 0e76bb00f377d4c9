//===- serve/Server.cpp - The vega-serve generation daemon -------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Transport.h"

#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

using namespace vega;
using namespace vega::serve;

VegaServer::VegaServer(VegaSession &Session, ServerOptions Options)
    : Session(Session), Options(Options),
      StartTime(std::chrono::steady_clock::now()) {
  if (this->Options.Window < 1)
    this->Options.Window = 1;
  // A daemon always keeps its request metrics on — the `stats` method must
  // answer without any exporter flag, and counter updates are cheap.
  obs::MetricsRegistry::instance().setEnabled(true);
  SchedulerOptions SchedOpts;
  SchedOpts.Window = this->Options.Window;
  SchedOpts.MaxQueue = this->Options.MaxQueue;
  Sched = std::make_unique<Scheduler>(Session, SchedOpts);
}

VegaServer::~VegaServer() = default;

void VegaServer::shutdown() {
  Shutdown.store(true, std::memory_order_relaxed);
}

std::future<std::string> VegaServer::submitLine(std::string Line) {
  auto Ctx = std::make_shared<obs::RequestContext>();
  auto Promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> Future = Promise->get_future();
  InFlight.fetch_add(1, std::memory_order_relaxed);
  dispatch(std::move(Line), std::move(Ctx), std::move(Promise));
  return Future;
}

std::string VegaServer::handleLine(const std::string &Line) {
  return submitLine(Line).get();
}

std::vector<std::string>
VegaServer::handleLines(const std::vector<std::string> &Lines) {
  std::vector<std::future<std::string>> Futures;
  Futures.reserve(Lines.size());
  for (const std::string &Line : Lines)
    Futures.push_back(submitLine(Line));
  std::vector<std::string> Responses;
  Responses.reserve(Futures.size());
  for (std::future<std::string> &Future : Futures)
    Responses.push_back(Future.get());
  return Responses;
}

void VegaServer::resolve(
    const std::shared_ptr<std::promise<std::string>> &Promise,
    std::string Response) {
  // Decrement before fulfilling: a waiter woken by the future must never
  // observe its own request still counted in flight.
  InFlight.fetch_sub(1, std::memory_order_relaxed);
  Promise->set_value(std::move(Response));
}

std::string VegaServer::runRequest(obs::RequestContext &Ctx,
                                   const std::string &MethodLabel,
                                   const std::string &Target,
                                   const std::function<Json()> &Build) {
  auto &Metrics = obs::MetricsRegistry::instance();
  auto &Log = obs::Logger::instance();
  obs::RequestScope ReqScope(&Ctx);
  obs::Span RequestSpan("serve.request", "serve");
  RequestSpan.arg("method", MethodLabel == "invalid" ? "<invalid>"
                                                     : MethodLabel);
  if (!Target.empty())
    RequestSpan.arg("target", Target);
  // The total counter lands before the response is built, so a `stats`
  // payload counts the request that asked for it.
  Metrics.addCounter("serve.requests");
  Json Response = Build();

  // Completion telemetry: one labeled counter series per (method, code),
  // the latency histogram, an info-level NDJSON line, and — past the slow
  // threshold — a warn-level dump of the request's span ring.
  std::string CodeLabel = "ok";
  if (const Json *Error = Response.get("error")) {
    Metrics.addCounter("serve.errors");
    CodeLabel =
        std::to_string(static_cast<long long>(Error->getNumber("code")));
  }
  RequestSpan.arg("code", CodeLabel);
  Metrics.addCounter("serve.requests",
                     {{"method", MethodLabel}, {"code", CodeLabel}});
  double Ms = Ctx.elapsedMs();
  Metrics.observe("serve.request_ms", Ms);
  if (Log.enabled(obs::LogLevel::Info)) {
    Json Fields = Json::object();
    Fields.set("req", Ctx.id());
    Fields.set("method", MethodLabel);
    if (!Target.empty())
      Fields.set("target", Target);
    Fields.set("code", CodeLabel);
    Fields.set("ms", Ms);
    Log.log(obs::LogLevel::Info, "serve.request", Fields);
  }
  if (Options.SlowMs > 0.0 && Ms >= Options.SlowMs &&
      Log.enabled(obs::LogLevel::Warn)) {
    Json Fields = Json::object();
    Fields.set("req", Ctx.id());
    Fields.set("method", MethodLabel);
    Fields.set("ms", Ms);
    Fields.set("slowMs", Options.SlowMs);
    Json SpanList = Json::array();
    for (const obs::RequestContext::SpanRecord &R : Ctx.spans()) {
      Json SpanJson = Json::object();
      SpanJson.set("name", R.Name);
      SpanJson.set("startUs", R.StartUs);
      SpanJson.set("durUs", R.DurUs);
      SpanList.push(std::move(SpanJson));
    }
    Fields.set("spans", std::move(SpanList));
    Fields.set("spansDropped", Ctx.spansDropped());
    Log.log(obs::LogLevel::Warn, "serve.slow", Fields);
  }
  return Response.dump();
}

void VegaServer::dispatch(std::string Line,
                          std::shared_ptr<obs::RequestContext> Ctx,
                          std::shared_ptr<std::promise<std::string>> Promise) {
  auto &Metrics = obs::MetricsRegistry::instance();
  StatusOr<RpcRequest> Parsed = parseRpcRequest(Line);
  if (!Parsed.isOk()) {
    Metrics.observe("serve.queue_ms", Ctx->elapsedMs());
    const Status &St = Parsed.status();
    ErrorCode Code = St.message().rfind("parse error", 0) == 0
                         ? ErrorCode::ParseError
                         : ErrorCode::InvalidRequest;
    resolve(Promise, runRequest(*Ctx, "invalid", "", [&] {
      return makeRpcError(Json(), Code, St.message());
    }));
    return;
  }

  RpcRequest &Request = *Parsed;
  Ctx->setMethod(Request.Method);
  Ctx->setDeadlineAfterMs(Request.Params.getNumber("deadlineMs", 0.0));
  const std::string &Method = Request.Method;

  // Everything answered on this thread experienced (essentially) no queue.
  // Generation requests observe their real queue wait at admission instead.
  auto Inline = [&](const std::string &Target, const std::function<Json()> &Build) {
    Metrics.observe("serve.queue_ms", Ctx->elapsedMs());
    resolve(Promise, runRequest(*Ctx, Method, Target, Build));
  };

  if (Ctx->expired()) {
    Inline("", [&] {
      return makeRpcError(Request.Id, ErrorCode::Unavailable,
                          "deadline exceeded", "unavailable");
    });
    return;
  }
  if (Method == "ping") {
    Inline("", [&] {
      Json Result = Json::object();
      Result.set("ok", true);
      return makeRpcResult(Request.Id, std::move(Result));
    });
    return;
  }
  if (Method == "info") {
    Inline("", [&] { return makeRpcResult(Request.Id, handleInfo()); });
    return;
  }
  if (Method == "stats") {
    Inline("", [&] { return makeRpcResult(Request.Id, handleStats()); });
    return;
  }
  if (Method == "shutdown") {
    shutdown();
    Inline("", [&] {
      Json Result = Json::object();
      Result.set("ok", true);
      return makeRpcResult(Request.Id, std::move(Result));
    });
    return;
  }
  if (Method != "generate" && Method != "evaluate" && Method != "repair") {
    Inline("", [&] {
      return makeRpcError(Request.Id, ErrorCode::MethodNotFound,
                          "unknown method '" + Method + "'", "unimplemented");
    });
    return;
  }

  std::string Target = Request.Params.getString("target");
  if (Target.empty()) {
    Inline("", [&] {
      return makeRpcError(Request.Id, ErrorCode::InvalidParams,
                          "params require a string 'target'",
                          "invalid-argument");
    });
    return;
  }
  if (Session.corpus().targets().find(Target) == nullptr) {
    Inline(Target, [&] {
      return makeRpcError(Request.Id,
                          Status::notFound("unknown target '" + Target + "'"));
    });
    return;
  }
  // Oracle selection (evaluate and repair): reject unknown names before the
  // request ever reaches the scheduler.
  std::string OracleParam = Request.Params.getString("oracle", "text");
  std::optional<eval::OracleKind> Oracle = eval::parseOracleKind(OracleParam);
  if (!Oracle) {
    Inline(Target, [&] {
      return makeRpcError(Request.Id, ErrorCode::InvalidParams,
                          "unknown oracle '" + OracleParam +
                              "' (expected text|differential|both)",
                          "invalid-argument");
    });
    return;
  }

  // A validated generation request: hand it to the scheduler. The
  // completion runs on the scheduler's completion worker once the target's
  // generation retires — possibly shared with other attached requests, but
  // each request still gets its own serve.request span, counters, and log
  // line.
  auto R = std::make_shared<RpcRequest>(std::move(Request));
  const eval::OracleRoles Roles = eval::oracleRoles(*Oracle);
  Status Submitted = Sched->submit(
      Target, Ctx,
      [this, R, Ctx, Promise, Target, Roles](const GeneratedBackend *Gen,
                                             const Status &St) {
        resolve(Promise, runRequest(*Ctx, R->Method, Target, [&]() -> Json {
          if (!St.isOk())
            return makeRpcError(R->Id, St);
          if (R->Method == "generate")
            return makeRpcResult(R->Id, backendToJson(*Gen));
          if (R->Method == "repair") {
            // The repair engine re-enters the model, so it takes the
            // scheduler's engine lock as a registered waiter: the lanes
            // stop claiming and release it, even under sustained load.
            // The report is deterministic, so co-batching does not change
            // the payload.
            repair::RepairOptions Opts;
            Opts.BeamWidth = static_cast<int>(
                R->Params.getNumber("beamWidth", Opts.BeamWidth));
            Opts.MaxRounds = static_cast<int>(
                R->Params.getNumber("maxRounds", Opts.MaxRounds));
            Opts.CSThreshold =
                R->Params.getNumber("csThreshold", Opts.CSThreshold);
            Opts.OracleImpl = Roles.Primary;
            Opts.Classifier = Roles.Classifier;
            repair::RepairEngine Engine(Session.system(), Opts);
            StatusOr<repair::RepairReport> Report = [&] {
              std::unique_lock<std::mutex> EngineLock = Sched->lockEngine();
              return Engine.repairBackend(*Gen);
            }();
            if (!Report.isOk())
              return makeRpcError(R->Id, Report.status());
            return makeRpcResult(R->Id, repairToJson(*Report));
          }
          const Backend *Golden = Session.corpus().backend(Target);
          const TargetTraits *Traits = Session.corpus().targets().find(Target);
          if (!Golden || !Traits)
            return makeRpcError(
                R->Id, Status::failedPrecondition("target '" + Target +
                                                  "' has no golden backend"));
          BackendEval Eval = evaluateBackend(*Gen, *Golden, *Traits,
                                             *Roles.Primary, Roles.Classifier);
          return makeRpcResult(R->Id, evalToJson(Eval));
        }));
      });
  if (!Submitted.isOk()) {
    // Typed backpressure (Overloaded, -32005) or shutdown — answered here;
    // the scheduler never saw a waiter.
    Inline(Target, [&] { return makeRpcError(R->Id, Submitted); });
  }
}

Json VegaServer::handleInfo() const {
  const BackendCorpus &Corpus = Session.corpus();
  Json Targets = Json::array();
  for (const TargetTraits &T : Corpus.targets().targets())
    Targets.push(T.Name);
  Json Training = Json::array();
  for (const std::string &N : Corpus.trainingTargetNames())
    Training.push(N);
  Json Info = Json::object();
  Info.set("schema", "vega-serve-1");
  Info.set("targets", std::move(Targets));
  Info.set("trainingTargets", std::move(Training));
  Info.set("templates",
           static_cast<uint64_t>(Session.system().templates().size()));
  Info.set("fromCheckpoint", Session.loadedFromCheckpoint());
  Info.set("maxBatch", Options.Window);
  return Info;
}

Json VegaServer::handleStats() {
  auto &Metrics = obs::MetricsRegistry::instance();
  SchedulerStats Sch = Sched->stats();
  Json Stats = Json::object();
  Stats.set("schema", "vega-stats-1");
  Stats.set("uptimeSec",
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          StartTime)
                .count());
  Stats.set("inFlight", InFlight.load(std::memory_order_relaxed));
  Stats.set("queueDepth", Sch.QueueDepth);
  Stats.set("requests", Metrics.counterValue("serve.requests"));
  {
    Json Scheduler = Json::object();
    Scheduler.set("window", Options.Window);
    Scheduler.set("maxQueue", Options.MaxQueue);
    Scheduler.set("steps", Sch.Steps);
    Scheduler.set("admitted", Sch.Admitted);
    Scheduler.set("attached", Sch.Attached);
    Scheduler.set("retired", Sch.Retired);
    Scheduler.set("rejected", Sch.Rejected);
    Scheduler.set("expired", Sch.Expired);
    Scheduler.set("maxCoActive", Sch.MaxCoActive);
    Scheduler.set("active", Sch.Active);
    Stats.set("scheduler", std::move(Scheduler));
  }
  // Reuse the registry's JSON export as the snapshot — stats, the JSON
  // exporter, and the Prometheus exposition all read the same store, so
  // the three views can never disagree on a count.
  StatusOr<Json> All = Json::parse(Metrics.exportJson());
  if (All.isOk()) {
    if (const Json *Counters = All->get("counters"))
      Stats.set("counters", *Counters);
    if (const Json *Gauges = All->get("gauges"))
      Stats.set("gauges", *Gauges);
    Json Quantiles = Json::object();
    if (const Json *Histograms = All->get("histograms"))
      for (const auto &[Name, H] : Histograms->fields()) {
        Json Q = Json::object();
        double Count = H.getNumber("count");
        Q.set("count", Count);
        Q.set("mean", Count > 0 ? H.getNumber("sum") / Count : 0.0);
        Q.set("p50", H.getNumber("p50"));
        Q.set("p95", H.getNumber("p95"));
        Q.set("p99", H.getNumber("p99"));
        Quantiles.set(Name, std::move(Q));
      }
    Stats.set("quantiles", std::move(Quantiles));
  }
  return Stats;
}

Status VegaServer::serveStream(std::istream &In, std::ostream &Out) {
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<std::future<std::string>> Pending;
  bool Done = false;

  // Responses go out in submission order; the writer drains futures so the
  // reader can keep pipelining lines into the scheduler.
  std::thread Writer([&] {
    while (true) {
      std::future<std::string> Future;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return Done || !Pending.empty(); });
        if (Pending.empty())
          return;
        Future = std::move(Pending.front());
        Pending.pop_front();
      }
      Out << Future.get() << "\n" << std::flush;
    }
  });

  std::string Line;
  while (!shutdownRequested() && std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::future<std::string> Future = submitLine(std::move(Line));
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Pending.push_back(std::move(Future));
    }
    Cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Done = true;
  }
  Cv.notify_one();
  Writer.join();
  return Status::ok();
}

Status VegaServer::serveSocket(const std::string &Path) {
  return serveSocketLines(
      Path, [this](const std::string &Line) { return handleLine(Line); },
      [this] { return shutdownRequested(); });
}
