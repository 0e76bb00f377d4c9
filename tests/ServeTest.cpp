//===- tests/ServeTest.cpp - vega-serve protocol + batching tests -------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// Exercises the JSON-RPC surface of serve::VegaServer against the tier-1
/// session (TestSession.h): request validation and error codes, the batched
/// generate path (responses must be byte-identical whether a request runs
/// alone, inside a forced batch, or concurrently with others), and the
/// stream and socket transports.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "TestSession.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Transport.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <sstream>
#include <thread>

using namespace vega;
using namespace vega::serve;

namespace {

Json parsed(const std::string &Line) {
  StatusOr<Json> Doc = Json::parse(Line);
  EXPECT_TRUE(Doc.isOk()) << Line;
  return Doc.isOk() ? *Doc : Json();
}

int errorCode(const Json &Response) {
  const Json *Err = Response.get("error");
  return Err ? static_cast<int>(Err->getNumber("code")) : 0;
}

/// Spins until \p Ready holds; false when it has not after a minute.
template <typename Pred> bool waitFor(Pred Ready) {
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (!Ready()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::yield();
  }
  return true;
}

} // namespace

TEST(Serve, PingAndInfo) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  Json Ping = parsed(Server.handleLine(R"({"id":1,"method":"ping"})"));
  ASSERT_NE(Ping.get("result"), nullptr);
  EXPECT_TRUE(Ping.get("result")->get("ok")->asBool());
  EXPECT_EQ(Ping.getString("jsonrpc"), "2.0");
  EXPECT_EQ(Ping.getNumber("id"), 1.0);

  Json Info = parsed(Server.handleLine(R"({"id":"i","method":"info"})"));
  const Json *Result = Info.get("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->getString("schema"), "vega-serve-1");
  EXPECT_EQ(Result->get("fromCheckpoint")->asBool(),
            !test::fixtureSessionPath().empty());
  EXPECT_GT(Result->get("targets")->size(), 20u);
}

TEST(Serve, MalformedRequestsGetRpcErrorCodes) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  EXPECT_EQ(errorCode(parsed(Server.handleLine("this is not json"))), -32700);
  EXPECT_EQ(errorCode(parsed(Server.handleLine("[1,2,3]"))), -32600);
  EXPECT_EQ(errorCode(parsed(Server.handleLine(R"({"id":1})"))), -32600);
  EXPECT_EQ(
      errorCode(parsed(Server.handleLine(R"({"id":1,"method":"frob"})"))),
      -32601);
  EXPECT_EQ(errorCode(parsed(Server.handleLine(
                R"({"id":1,"method":"generate","params":{}})"))),
            -32602);
  Json Unknown = parsed(Server.handleLine(
      R"({"id":1,"method":"generate","params":{"target":"Z80"}})"));
  EXPECT_EQ(errorCode(Unknown), -32001); // not-found
  EXPECT_EQ(Unknown.get("error")->get("data")->getString("status"),
            "not-found");
}

TEST(Serve, GenerateMatchesDirectProtocolDump) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  Json Response = parsed(Server.handleLine(
      R"({"id":7,"method":"generate","params":{"target":"RISCV"}})"));
  ASSERT_NE(Response.get("result"), nullptr);
  StatusOr<GeneratedBackend> Direct = test::tier1Session().generate("RISCV");
  ASSERT_TRUE(Direct.isOk());
  EXPECT_EQ(Response.get("result")->dump(),
            serve::backendToJson(*Direct).dump());
}

TEST(Serve, ForcedBatchMatchesSingleRequestResponses) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  std::vector<std::string> Lines = {
      R"({"id":1,"method":"generate","params":{"target":"RISCV"}})",
      R"({"id":2,"method":"generate","params":{"target":"RI5CY"}})",
      R"({"id":3,"method":"generate","params":{"target":"RISCV"}})",
      R"({"id":4,"method":"evaluate","params":{"target":"XCORE"}})",
      R"({"id":5,"method":"ping"})",
  };
  std::vector<std::string> Batched = Server.handleLines(Lines);
  ASSERT_EQ(Batched.size(), Lines.size());
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Batched[I], Server.handleLine(Lines[I])) << "request " << I;
  // Identical requests inside one batch share the deduped generation.
  Json First = parsed(Batched[0]), Third = parsed(Batched[2]);
  EXPECT_EQ(First.get("result")->dump(), Third.get("result")->dump());
}

TEST(Serve, ConcurrentSubmittersGetIndependentAnswers) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  const std::vector<std::string> Targets = {"RISCV", "RI5CY", "XCORE",
                                            "RISCV"};
  std::vector<std::string> Got(Targets.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Targets.size(); ++I)
    Threads.emplace_back([&, I] {
      Got[I] = Server.handleLine(
          R"({"id":)" + std::to_string(I) +
          R"(,"method":"generate","params":{"target":")" + Targets[I] +
          R"("}})");
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Targets.size(); ++I) {
    Json Response = parsed(Got[I]);
    EXPECT_EQ(Response.getNumber("id"), static_cast<double>(I));
    ASSERT_NE(Response.get("result"), nullptr) << Got[I];
    EXPECT_EQ(Response.get("result")->getString("target"), Targets[I]);
  }
  // Same target → byte-identical result regardless of batching.
  Json A = parsed(Got[0]), B = parsed(Got[3]);
  EXPECT_EQ(A.get("result")->dump(), B.get("result")->dump());
}

TEST(Serve, EvaluateReportsSchemaAndSummary) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  Json Response = parsed(Server.handleLine(
      R"({"id":1,"method":"evaluate","params":{"target":"RISCV"}})"));
  const Json *Result = Response.get("result");
  ASSERT_NE(Result, nullptr);
  EXPECT_EQ(Result->getString("schema"), "vega-eval-2");
  // The default oracle is the historical text oracle: no differential
  // summary fields appear, so v1 consumers see the same shape plus the
  // "oracle" tag and per-function "txtOnly" flags.
  EXPECT_EQ(Result->getString("oracle"), "text");
  const Json *Summary = Result->get("summary");
  ASSERT_NE(Summary, nullptr);
  double FnAcc = Summary->getNumber("functionAccuracy", -1);
  EXPECT_GE(FnAcc, 0.0);
  EXPECT_LE(FnAcc, 1.0);
  EXPECT_EQ(Summary->get("differentialAccuracy"), nullptr);
  EXPECT_EQ(Summary->get("oracleAgreement"), nullptr);
}

TEST(Serve, EvaluateWithBothOraclesReportsDifferentialSummary) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  Json Response = parsed(Server.handleLine(
      R"({"id":2,"method":"evaluate","params":{"target":"RISCV","oracle":"both"}})"));
  const Json *Result = Response.get("result");
  ASSERT_NE(Result, nullptr) << Response.dump();
  EXPECT_EQ(Result->getString("schema"), "vega-eval-2");
  EXPECT_EQ(Result->getString("oracle"), "text+differential");
  const Json *Summary = Result->get("summary");
  ASSERT_NE(Summary, nullptr);
  EXPECT_GE(Summary->getNumber("differentialAccuracy", -1), 0.0);
  EXPECT_GE(Summary->getNumber("adjustedStatementAccuracy", -1),
            Summary->getNumber("statementAccuracy", -1));
  const Json *Agreement = Summary->get("oracleAgreement");
  ASSERT_NE(Agreement, nullptr);
  EXPECT_GE(Agreement->getNumber("bothPass", -1), 0.0);
  EXPECT_GE(Agreement->getNumber("primaryOnlyPass", -1), 0.0);
  // Every scored function carries the differential sub-object.
  const Json *Functions = Result->get("functions");
  ASSERT_NE(Functions, nullptr);
  ASSERT_GT(Functions->size(), 0u);
  for (const Json &Fn : Functions->items()) {
    ASSERT_NE(Fn.get("txtOnly"), nullptr);
    // Scoring needs both sides: a generated function with no golden
    // counterpart (or vice versa) never reaches either oracle.
    if (!Fn.get("generated")->asBool() || !Fn.get("goldenExists")->asBool())
      continue;
    const Json *Diff = Fn.get("differential");
    ASSERT_NE(Diff, nullptr) << Fn.dump();
    EXPECT_GE(Diff->getNumber("cases", -1), 0.0);
  }

  // An unknown oracle is rejected up front with InvalidParams, before any
  // generation work is scheduled.
  Json Bad = parsed(Server.handleLine(
      R"({"id":3,"method":"evaluate","params":{"target":"RISCV","oracle":"vibes"}})"));
  EXPECT_EQ(errorCode(Bad), -32602);
  EXPECT_EQ(Bad.get("error")->get("data")->getString("status"),
            "invalid-argument");
}

TEST(Serve, ErrorTaxonomySerializesAllCombinationsInStableOrder) {
  // The "vega-eval-2" errors array must list Err-V, Err-CS, Err-Def,
  // Div-Val, Div-Trap, Div-Eff in that fixed order for every one of the
  // 64 flag combinations — downstream diffing (CI smoke, jobs-determinism
  // checks) relies on the rendering being canonical.
  for (int Mask = 0; Mask < 64; ++Mask) {
    BackendEval Eval;
    Eval.TargetName = "RISCV";
    FunctionEval FE;
    FE.InterfaceName = "combo" + std::to_string(Mask);
    FE.GoldenExists = true;
    FE.Generated = true;
    FE.ErrV = (Mask & 1) != 0;
    FE.ErrCS = (Mask & 2) != 0;
    FE.ErrDef = (Mask & 4) != 0;
    FE.DivVal = (Mask & 8) != 0;
    FE.DivTrap = (Mask & 16) != 0;
    FE.DivEff = (Mask & 32) != 0;
    // Divergence classes only arise when the differential oracle ran.
    FE.DiffRan = (Mask & 56) != 0;
    FE.DiffCases = FE.DiffRan ? 24 : 0;
    FE.DiffPassed = 0;
    FE.TxtOnly = Mask == 0;
    FE.Accurate = Mask == 0;
    Eval.Functions.push_back(FE);

    Json Doc = evalToJson(Eval);
    ASSERT_EQ(Doc.get("functions")->size(), 1u) << "mask " << Mask;
    const Json &Fn = Doc.get("functions")->at(0);
    const Json *Errors = Fn.get("errors");
    ASSERT_NE(Errors, nullptr) << "mask " << Mask;
    std::vector<std::string> Expected;
    if (FE.ErrV)
      Expected.push_back("Err-V");
    if (FE.ErrCS)
      Expected.push_back("Err-CS");
    if (FE.ErrDef)
      Expected.push_back("Err-Def");
    if (FE.DivVal)
      Expected.push_back("Div-Val");
    if (FE.DivTrap)
      Expected.push_back("Div-Trap");
    if (FE.DivEff)
      Expected.push_back("Div-Eff");
    ASSERT_EQ(Errors->size(), Expected.size()) << "mask " << Mask;
    for (size_t I = 0; I < Expected.size(); ++I)
      EXPECT_EQ(Errors->at(I).asString(), Expected[I])
          << "mask " << Mask << " index " << I;
    // txtOnly always renders; the differential sub-object exactly when
    // the differential oracle ran.
    ASSERT_NE(Fn.get("txtOnly"), nullptr) << "mask " << Mask;
    EXPECT_EQ(Fn.get("txtOnly")->asBool(), FE.TxtOnly) << "mask " << Mask;
    EXPECT_EQ(Fn.get("differential") != nullptr, FE.DiffRan)
        << "mask " << Mask;

    // Round-trip: re-parsing the dump preserves the array byte-for-byte.
    StatusOr<Json> Back = Json::parse(Doc.dump());
    ASSERT_TRUE(Back.isOk()) << "mask " << Mask;
    EXPECT_EQ(Back->dump(), Doc.dump()) << "mask " << Mask;
  }
}

TEST(Serve, RepairMethodReportsSchemaAndNeverRegresses) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  Json Response = parsed(Server.handleLine(
      R"({"id":9,"method":"repair","params":{"target":"RISCV","beamWidth":2,"maxRounds":1}})"));
  const Json *Result = Response.get("result");
  ASSERT_NE(Result, nullptr) << Response.dump();
  EXPECT_EQ(Result->getString("schema"), "vega-repair-1");
  const Json *Options = Result->get("options");
  ASSERT_NE(Options, nullptr);
  EXPECT_EQ(Options->getNumber("beamWidth"), 2.0);
  EXPECT_EQ(Options->getNumber("maxRounds"), 1.0);
  EXPECT_EQ(Options->getString("oracle"), "text");
  const Json *Summary = Result->get("summary");
  ASSERT_NE(Summary, nullptr);
  double Before = Summary->getNumber("baselineFunctionAccuracy", -1);
  double After = Summary->getNumber("repairedFunctionAccuracy", -1);
  EXPECT_GE(Before, 0.0);
  EXPECT_GE(After, Before);
  ASSERT_NE(Result->get("backend"), nullptr);
  EXPECT_EQ(Result->get("backend")->getString("schema"), "vega-backend-1");

  // Unknown target surfaces the standard notFound error, same as
  // generate/evaluate.
  Json Bad = parsed(Server.handleLine(
      R"({"id":10,"method":"repair","params":{"target":"Nope"}})"));
  EXPECT_EQ(errorCode(Bad), -32001);
}

TEST(Serve, StatsRpcReportsLiveTelemetry) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  obs::MetricsRegistry::instance().clear();
  parsed(Server.handleLine(
      R"({"id":1,"method":"generate","params":{"target":"RISCV"}})"));
  Json Stats = parsed(Server.handleLine(R"({"id":2,"method":"stats"})"));
  const Json *Result = Stats.get("result");
  ASSERT_NE(Result, nullptr) << Stats.dump();
  EXPECT_EQ(Result->getString("schema"), "vega-stats-1");
  EXPECT_GE(Result->getNumber("uptimeSec"), 0.0);
  // The stats request counts itself: one generate + this call.
  EXPECT_EQ(Result->getNumber("requests"), 2.0);
  EXPECT_EQ(Result->getNumber("inFlight"), 1.0); // this very request
  EXPECT_EQ(Result->getNumber("queueDepth"), 0.0);
  const Json *Counters = Result->get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->getNumber(
                "serve.requests{code=\"ok\",method=\"generate\"}"),
            1.0);
  const Json *Quantiles = Result->get("quantiles");
  ASSERT_NE(Quantiles, nullptr);
  const Json *Latency = Quantiles->get("serve.request_ms");
  ASSERT_NE(Latency, nullptr) << Stats.dump();
  EXPECT_GE(Latency->getNumber("count"), 1.0);
  EXPECT_GE(Latency->getNumber("p50"), 0.0);
  EXPECT_GE(Latency->getNumber("p99"), Latency->getNumber("p50"));
}

TEST(Serve, StatsTopLevelShapeIsFrozen) {
  // The flywheel is deliberately NOT a serve method — self-training runs
  // offline via vega-cli. Pin the exact "vega-stats-1" top-level key set
  // so no subsystem grows serve-side telemetry surface unnoticed.
  VegaServer Server(test::tier1Session(), ServerOptions());
  Json Stats = parsed(Server.handleLine(R"({"id":9,"method":"stats"})"));
  const Json *Result = Stats.get("result");
  ASSERT_NE(Result, nullptr) << Stats.dump();
  std::vector<std::string> Keys;
  for (const auto &Field : Result->fields())
    Keys.push_back(Field.first);
  EXPECT_EQ(Keys, (std::vector<std::string>{
                      "schema", "uptimeSec", "inFlight", "queueDepth",
                      "requests", "scheduler", "counters", "gauges",
                      "quantiles"}));
  std::vector<std::string> Sched;
  for (const auto &Field : Result->get("scheduler")->fields())
    Sched.push_back(Field.first);
  EXPECT_EQ(Sched, (std::vector<std::string>{
                       "window", "maxQueue", "steps", "admitted", "attached",
                       "retired", "rejected", "expired", "maxCoActive",
                       "active"}));
  // And no flywheel method leaked into the RPC surface.
  Json Unknown = parsed(Server.handleLine(R"({"id":10,"method":"flywheel"})"));
  EXPECT_EQ(errorCode(Unknown), -32601);
}

TEST(Serve, DeadlineExceededAnswersUnavailable) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  // The deadline is armed relative to request creation; a sub-microsecond
  // budget is always blown by parse time and must never reach generation.
  Json Late = parsed(Server.handleLine(
      R"({"id":11,"method":"generate","params":{"target":"RISCV","deadlineMs":0.000001}})"));
  EXPECT_EQ(errorCode(Late), -32004);
  EXPECT_EQ(Late.get("error")->getString("message"), "deadline exceeded");
  EXPECT_EQ(Late.get("error")->get("data")->getString("status"),
            "unavailable");
  // A roomy deadline changes nothing about a successful answer.
  Json Ok = parsed(Server.handleLine(
      R"({"id":12,"method":"generate","params":{"target":"RISCV","deadlineMs":600000}})"));
  ASSERT_NE(Ok.get("result"), nullptr) << Ok.dump();
  Json Plain = parsed(Server.handleLine(
      R"({"id":12,"method":"generate","params":{"target":"RISCV"}})"));
  EXPECT_EQ(Ok.get("result")->dump(), Plain.get("result")->dump());
}

TEST(Serve, EverySpanCarriesItsOriginatingRequestId) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  auto &Recorder = obs::TraceRecorder::instance();
  Recorder.clear();
  Recorder.setEnabled(true);
  Json Response = parsed(Server.handleLine(
      R"({"id":31,"method":"generate","params":{"target":"RI5CY"}})"));
  Recorder.setEnabled(false);
  ASSERT_NE(Response.get("result"), nullptr) << Response.dump();
  // The serve.request span knows the request; every gen.* span produced on
  // its behalf — across the ThreadPool fan-out — carries the same id.
  std::string RequestId;
  std::vector<obs::TraceEvent> Events = Recorder.snapshot();
  for (const obs::TraceEvent &E : Events)
    if (E.Name == "serve.request")
      for (const auto &[K, V] : E.Args)
        if (K == "req")
          RequestId = V;
  ASSERT_FALSE(RequestId.empty());
  size_t GenSpans = 0;
  for (const obs::TraceEvent &E : Events) {
    if (E.Name.rfind("gen.", 0) != 0)
      continue;
    ++GenSpans;
    bool Attributed = false;
    for (const auto &[K, V] : E.Args)
      if (K == "req" && V == RequestId)
        Attributed = true;
    EXPECT_TRUE(Attributed) << E.Name << " missing req=" << RequestId;
  }
  EXPECT_GT(GenSpans, 0u);
  Recorder.clear();
}

TEST(Serve, CoBatchedSpansCarryTheirOpenersRequest) {
  // Staged while paused: RISCV (A), XCORE (B), then RISCV again (C), which
  // attaches to A's generation. Both generations share the step fan-outs,
  // yet every generation span belongs to the request that opened its
  // generation: RISCV work to A, XCORE work to B, and none to C.
  VegaServer Server(test::tier1Session(), ServerOptions());
  auto &Recorder = obs::TraceRecorder::instance();
  Recorder.clear();
  Recorder.setEnabled(true);
  Server.scheduler().pause();
  std::future<std::string> FA = Server.submitLine(
      R"({"id":"A","method":"generate","params":{"target":"RISCV"}})");
  std::future<std::string> FB = Server.submitLine(
      R"({"id":"B","method":"generate","params":{"target":"XCORE"}})");
  std::future<std::string> FC = Server.submitLine(
      R"({"id":"C","method":"generate","params":{"target":"RISCV"}})");
  Server.scheduler().resume();
  Json RA = parsed(FA.get()), RB = parsed(FB.get()), RC = parsed(FC.get());
  Recorder.setEnabled(false);
  ASSERT_NE(RA.get("result"), nullptr) << RA.dump();
  ASSERT_NE(RB.get("result"), nullptr) << RB.dump();
  ASSERT_NE(RC.get("result"), nullptr) << RC.dump();
  SchedulerStats S = Server.scheduler().stats();
  EXPECT_EQ(S.Attached, 1u);
  EXPECT_GE(S.MaxCoActive, 2u);

  auto ArgOf = [](const obs::TraceEvent &E, const std::string &Key) {
    for (const auto &[K, V] : E.Args)
      if (K == Key)
        return V;
    return std::string();
  };
  // Request ids are process-monotonic in submission order, and each
  // serve.request span names its request's target.
  std::vector<obs::TraceEvent> Events = Recorder.snapshot();
  std::map<std::string, std::vector<uint64_t>> Requests;
  for (const obs::TraceEvent &E : Events)
    if (E.Name == "serve.request")
      Requests[ArgOf(E, "target")].push_back(std::stoull(ArgOf(E, "req")));
  ASSERT_EQ(Requests["RISCV"].size(), 2u);
  ASSERT_EQ(Requests["XCORE"].size(), 1u);
  const std::string A = std::to_string(std::min(Requests["RISCV"][0],
                                                Requests["RISCV"][1]));
  const std::string C = std::to_string(std::max(Requests["RISCV"][0],
                                                Requests["RISCV"][1]));
  const std::string B = std::to_string(Requests["XCORE"][0]);

  size_t RiscvSpans = 0, XcoreSpans = 0;
  for (const obs::TraceEvent &E : Events) {
    const std::string Req = ArgOf(E, "req");
    // C's only span is its own serve.request.
    if (Req == C) {
      EXPECT_EQ(E.Name, "serve.request");
    }
    if (E.Name.rfind("gen.", 0) != 0)
      continue;
    EXPECT_TRUE(Req == A || Req == B) << E.Name << " carries req=" << Req;
    const std::string Target = ArgOf(E, "target");
    if (Target == "RISCV") {
      ++RiscvSpans;
      EXPECT_EQ(Req, A) << E.Name;
    } else if (Target == "XCORE") {
      ++XcoreSpans;
      EXPECT_EQ(Req, B) << E.Name;
    }
  }
  EXPECT_GT(RiscvSpans, 0u);
  EXPECT_GT(XcoreSpans, 0u);
  Recorder.clear();
}

TEST(Serve, StreamTransportAnswersInOrderAndStopsOnShutdown) {
  VegaServer Server(test::tier1Session(), ServerOptions());
  std::istringstream In(R"({"id":1,"method":"ping"})"
                        "\n"
                        R"({"id":2,"method":"generate","params":{"target":"RISCV"}})"
                        "\n"
                        R"({"id":3,"method":"shutdown"})"
                        "\n");
  std::ostringstream Out;
  ASSERT_TRUE(Server.serveStream(In, Out).isOk());
  EXPECT_TRUE(Server.shutdownRequested());

  std::vector<Json> Responses;
  std::istringstream Lines(Out.str());
  std::string Line;
  while (std::getline(Lines, Line))
    Responses.push_back(parsed(Line));
  ASSERT_EQ(Responses.size(), 3u); // every submitted request is answered
  EXPECT_EQ(Responses[0].getNumber("id"), 1.0);
  EXPECT_EQ(Responses[1].getNumber("id"), 2.0);
  EXPECT_EQ(Responses[1].get("result")->getString("target"), "RISCV");
  EXPECT_EQ(Responses[2].getNumber("id"), 3.0);
}

TEST(Serve, CoBatchedEightWayMatchesSoloBytes) {
  // Eight concurrent clients over three targets: every response must be
  // byte-identical to the sequential (solo) answer for the same request
  // line. Co-batching in the scheduler may only change timing.
  VegaServer Server(test::tier1Session(), ServerOptions());
  const std::vector<std::string> Targets = {"RISCV", "RI5CY", "XCORE"};
  std::vector<std::string> Lines, Solo;
  for (size_t I = 0; I < 8; ++I)
    Lines.push_back(R"({"id":)" + std::to_string(I) +
                    R"(,"method":"generate","params":{"target":")" +
                    Targets[I % Targets.size()] + R"("}})");
  for (const std::string &L : Lines)
    Solo.push_back(Server.handleLine(L));

  std::vector<std::string> Got(Lines.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Lines.size(); ++I)
    Threads.emplace_back([&, I] { Got[I] = Server.handleLine(Lines[I]); });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Got[I], Solo[I]) << "request " << I;
  SchedulerStats S = Server.scheduler().stats();
  EXPECT_EQ(S.Admitted + S.Attached, 16u);
  EXPECT_EQ(S.Retired, S.Admitted);
  EXPECT_EQ(S.Active, 0u);
  EXPECT_EQ(S.QueueDepth, 0u);
}

TEST(Serve, MidFlightAdmissionCoBatchesQueuedTargets) {
  // pause() holds admission so two different targets are provably queued
  // together; resume() must admit both into one co-active step window
  // (MaxCoActive >= 2 — real mid-flight co-residency, not luck), and two
  // queued requests for one target must share a single generation.
  VegaServer Server(test::tier1Session(), ServerOptions());
  Server.scheduler().pause();
  std::future<std::string> F1 = Server.submitLine(
      R"({"id":1,"method":"generate","params":{"target":"RISCV"}})");
  std::future<std::string> F2 = Server.submitLine(
      R"({"id":2,"method":"generate","params":{"target":"RI5CY"}})");
  std::future<std::string> F3 = Server.submitLine(
      R"({"id":3,"method":"generate","params":{"target":"RISCV"}})");
  EXPECT_EQ(Server.scheduler().stats().QueueDepth, 3u);
  EXPECT_EQ(Server.inFlight(), 3u);
  Server.scheduler().resume();
  Json R1 = parsed(F1.get()), R2 = parsed(F2.get()), R3 = parsed(F3.get());
  ASSERT_NE(R1.get("result"), nullptr);
  ASSERT_NE(R2.get("result"), nullptr);
  ASSERT_NE(R3.get("result"), nullptr);
  // Deduped same-target requests answer with the same backend bytes.
  EXPECT_EQ(R1.get("result")->dump(), R3.get("result")->dump());
  SchedulerStats S = Server.scheduler().stats();
  EXPECT_EQ(S.Admitted, 2u);
  EXPECT_EQ(S.Attached, 1u);
  EXPECT_EQ(S.Retired, 2u);
  EXPECT_GE(S.MaxCoActive, 2u);
  EXPECT_EQ(Server.inFlight(), 0u);
}

TEST(Serve, SoloRequestRunsInOneFanOut) {
  // The lanes pull a lone request's units one at a time, with no barrier
  // between lane-sized groups: one fan-out runs every unit, whatever the
  // lane count.
  VegaServer Server(test::tier1Session(), ServerOptions());
  Server.scheduler().pause();
  std::future<std::string> F = Server.submitLine(
      R"({"id":1,"method":"generate","params":{"target":"RISCV"}})");
  Server.scheduler().resume();
  Json Response = parsed(F.get());
  const Json *Result = Response.get("result");
  ASSERT_NE(Result, nullptr) << Response.dump();
  SchedulerStats S = Server.scheduler().stats();
  EXPECT_EQ(S.Steps, 1u);
  EXPECT_EQ(S.Admitted, 1u);
  EXPECT_EQ(S.Retired, 1u);
  // Every unit ran: the backend holds one function per unit.
  StatusOr<VegaSession::GenerationHandle> H =
      test::tier1Session().beginGenerate("RISCV");
  ASSERT_TRUE(H.isOk());
  EXPECT_EQ(Result->get("functions")->size(), H->unitCount());
}

TEST(Serve, MidFlightArrivalStartsBeforeTheRunningGenerationRetires) {
  // A request that arrives while another generation's units run is
  // admitted by the next pull and starts on the next free lane: some unit
  // of it starts before the running generation's last unit ends (so before
  // that generation retires), instead of waiting behind it. Span
  // timestamps order the two. Both answers are still the solo bytes.
  struct JobsGuard {
    JobsGuard() { test::tier1Session().setJobs(4); }
    ~JobsGuard() { test::tier1Session().setJobs(0); }
  } FourLanes;
  VegaServer Server(test::tier1Session(), ServerOptions());
  const std::string LineA =
      R"({"id":"A","method":"generate","params":{"target":"RISCV"}})";
  const std::string LineB =
      R"({"id":"B","method":"generate","params":{"target":"XCORE"}})";
  const std::string SoloA = Server.handleLine(LineA);
  const std::string SoloB = Server.handleLine(LineB);

  auto ArgOf = [](const obs::TraceEvent &E, const std::string &Key) {
    for (const auto &[K, V] : E.Args)
      if (K == Key)
        return V;
    return std::string();
  };
  auto &Recorder = obs::TraceRecorder::instance();
  // B must arrive while A still has a unit to start. The test thread
  // reacts within microseconds of A's admission, so a retry is needed
  // only when it was descheduled for all of A's run.
  bool Staged = false;
  for (int Attempt = 0; Attempt < 5 && !Staged; ++Attempt) {
    Recorder.clear();
    Recorder.setEnabled(true);
    const uint64_t AdmittedBefore = Server.scheduler().stats().Admitted;
    std::future<std::string> FA = Server.submitLine(LineA);
    ASSERT_TRUE(waitFor([&] {
      return Server.scheduler().stats().Admitted > AdmittedBefore;
    }));
    std::future<std::string> FB;
    {
      obs::Span Arrival("test.arrival", "test");
      FB = Server.submitLine(LineB);
    }
    const std::string GotA = FA.get(), GotB = FB.get();
    Recorder.setEnabled(false);
    EXPECT_EQ(GotA, SoloA);
    EXPECT_EQ(GotB, SoloB);

    double ArrivalUs = -1, LastAStartUs = -1, LastAEndUs = -1;
    double FirstBStartUs = -1;
    for (const obs::TraceEvent &E : Recorder.snapshot()) {
      if (E.Name == "test.arrival")
        ArrivalUs = E.StartUs;
      if (E.Name.rfind("gen.", 0) != 0)
        continue;
      const std::string Target = ArgOf(E, "target");
      if (Target == "RISCV") {
        LastAStartUs = std::max(LastAStartUs, E.StartUs);
        LastAEndUs = std::max(LastAEndUs, E.StartUs + E.DurUs);
      } else if (Target == "XCORE" &&
                 (FirstBStartUs < 0 || E.StartUs < FirstBStartUs)) {
        FirstBStartUs = E.StartUs;
      }
    }
    ASSERT_GE(ArrivalUs, 0.0);
    ASSERT_GE(LastAStartUs, 0.0);
    ASSERT_GE(FirstBStartUs, 0.0);
    Staged = ArrivalUs < LastAStartUs;
    if (Staged) {
      EXPECT_LT(FirstBStartUs, LastAEndUs)
          << "the arrival waited for the running generation to retire";
    }
  }
  Recorder.clear();
  EXPECT_TRUE(Staged) << "never arrived while the first generation ran";
}

TEST(Serve, RepairIsNotStarvedByAStreamOfGenerates) {
  // A stream of generate requests keeps four generations active whether or
  // not answers come back, so the pull fan-out never runs dry on its own.
  // A repair RPC in the middle takes the engine lock as a registered
  // waiter: the lanes stop claiming, the repair runs, and it answers with
  // its usual report while the stream is still going.
  VegaServer Server(test::tier1Session(), ServerOptions());
  const std::string RepairLine =
      R"({"id":"r","method":"repair","params":{"target":"RISCV","beamWidth":2,"maxRounds":1}})";
  const std::string Solo = Server.handleLine(RepairLine);
  ASSERT_NE(parsed(Solo).get("result"), nullptr) << Solo;

  std::vector<std::string> Targets;
  for (const TargetTraits &T :
       test::tier1Session().corpus().targets().targets())
    if (T.Name != "RISCV")
      Targets.push_back(T.Name);
  ASSERT_GE(Targets.size(), 4u);
  // Far more requests than the repair needs to wait for: a stream that
  // reaches the cap starved the repair until the lanes ran dry.
  constexpr size_t Cap = 400;
  std::atomic<bool> RepairAnswered{false};
  std::atomic<size_t> Submitted{0};
  std::vector<std::future<std::string>> Answers;
  std::thread Stream([&] {
    while (!RepairAnswered.load() && Submitted.load() < Cap) {
      SchedulerStats S = Server.scheduler().stats();
      if (S.Active + S.QueueDepth >= 4) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      const size_t I = Submitted.fetch_add(1);
      Answers.push_back(Server.submitLine(
          R"({"id":)" + std::to_string(I) +
          R"(,"method":"generate","params":{"target":")" +
          Targets[I % Targets.size()] + R"("}})"));
    }
  });
  if (!waitFor([&] { return Submitted.load() >= 8; })) {
    RepairAnswered = true;
    Stream.join();
    FAIL() << "the stream did not get going";
  }
  const std::string Got = Server.submitLine(RepairLine).get();
  const size_t AtAnswer = Submitted.load();
  RepairAnswered = true;
  Stream.join();
  for (std::future<std::string> &F : Answers) {
    Json Response = parsed(F.get());
    EXPECT_NE(Response.get("result"), nullptr) << Response.dump();
  }
  EXPECT_EQ(Got, Solo);
  EXPECT_LT(AtAnswer, Cap) << "the repair waited for the stream to end";
}

TEST(Serve, BackpressureRejectsWithTypedOverloadedCode) {
  // Window 1 + queue 1, paused: the first request holds the only queue
  // slot, so the second must be rejected synchronously with the typed
  // Overloaded code (-32005) — admission control, not an open-ended queue.
  ServerOptions Options;
  Options.Window = 1;
  Options.MaxQueue = 1;
  VegaServer Server(test::tier1Session(), Options);
  Server.scheduler().pause();
  std::future<std::string> Held = Server.submitLine(
      R"({"id":1,"method":"generate","params":{"target":"RISCV"}})");
  Json Rejected = parsed(Server.handleLine(
      R"({"id":2,"method":"generate","params":{"target":"XCORE"}})"));
  EXPECT_EQ(errorCode(Rejected), -32005);
  EXPECT_EQ(Rejected.get("error")->get("data")->getString("status"),
            "resource-exhausted");
  EXPECT_EQ(Server.scheduler().stats().Rejected, 1u);
  Server.scheduler().resume();
  Json First = parsed(Held.get());
  EXPECT_NE(First.get("result"), nullptr);
}

TEST(Serve, SocketTransportAnswersLikeHandleLineAndStopsOnShutdown) {
  // AF_UNIX paths hold at most 107 bytes, so the socket gets a short
  // per-process name under /tmp rather than a path in the build tree.
  const std::string Path =
      "/tmp/vega-serve-test-" + std::to_string(::getpid()) + ".sock";
  VegaServer Server(test::tier1Session(), ServerOptions());
  std::future<Status> Served = std::async(
      std::launch::async, [&] { return Server.serveSocket(Path); });
  // Declared after Served so a failed assertion stops the accept loop
  // before the future's destructor waits for it.
  struct StopOnExit {
    VegaServer &Daemon;
    ~StopOnExit() { Daemon.shutdown(); }
  } Stop{Server};

  // The listener binds on its own thread; wait until it answers.
  bool Up = false;
  for (int Try = 0; Try < 200 && !Up; ++Try) {
    Up = callSocketLine(Path, R"({"id":0,"method":"ping"})").isOk();
    if (!Up)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(Up) << "no listener at " << Path;

  for (const std::string Line :
       {R"({"id":1,"method":"info"})",
        R"({"id":2,"method":"generate","params":{"target":"RISCV"}})",
        R"({"id":3,"method":"generate","params":{"target":"Z80"}})",
        "this is not json"}) {
    StatusOr<std::string> Reply = callSocketLine(Path, Line);
    ASSERT_TRUE(Reply.isOk()) << Reply.status().toString();
    EXPECT_EQ(*Reply, Server.handleLine(Line)) << Line;
  }

  StatusOr<std::string> Bye =
      callSocketLine(Path, R"({"id":4,"method":"shutdown"})");
  ASSERT_TRUE(Bye.isOk()) << Bye.status().toString();
  EXPECT_TRUE(parsed(*Bye).get("result")->get("ok")->asBool()) << *Bye;
  EXPECT_TRUE(Served.get().isOk());
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_EQ(callSocketLine(Path, R"({"id":5,"method":"ping"})").status().code(),
            StatusCode::Unavailable);
}
