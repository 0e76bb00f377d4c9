//===- tests/ObsTest.cpp - tracing & metrics layer tests -----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// src/obs: span nesting and depth, histogram bucketing, the disabled
/// fast path, thread-safety smoke tests, and a Chrome-trace JSON round-trip
/// through a minimal JSON validity checker.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Request.h"
#include "obs/Trace.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace vega;
using namespace vega::obs;

namespace {

/// Minimal recursive-descent JSON validity checker (objects, arrays,
/// strings, numbers, literals). Returns true iff \p Text is one valid JSON
/// value with nothing trailing.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : S(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return I == S.size();
  }

private:
  const std::string &S;
  size_t I = 0;

  void skipWs() {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
  }
  bool consume(char C) {
    if (I < S.size() && S[I] == C) {
      ++I;
      return true;
    }
    return false;
  }
  bool literal(const char *Lit) {
    size_t N = std::strlen(Lit);
    if (S.compare(I, N, Lit) != 0)
      return false;
    I += N;
    return true;
  }
  bool string() {
    if (!consume('"'))
      return false;
    while (I < S.size() && S[I] != '"') {
      if (S[I] == '\\') {
        ++I;
        if (I >= S.size())
          return false;
        if (S[I] == 'u') {
          for (int K = 0; K < 4; ++K)
            if (++I >= S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[I])))
              return false;
        }
      }
      ++I;
    }
    return consume('"');
  }
  bool number() {
    size_t Begin = I;
    if (I < S.size() && S[I] == '-')
      ++I;
    while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
      ++I;
    if (I == Begin || (Begin + 1 == I && S[Begin] == '-'))
      return false;
    if (consume('.')) {
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    if (I < S.size() && (S[I] == 'e' || S[I] == 'E')) {
      ++I;
      if (I < S.size() && (S[I] == '+' || S[I] == '-'))
        ++I;
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
    }
    return true;
  }
  bool value() {
    skipWs();
    if (I >= S.size())
      return false;
    switch (S[I]) {
    case '{': {
      ++I;
      skipWs();
      if (consume('}'))
        return true;
      do {
        skipWs();
        if (!string())
          return false;
        skipWs();
        if (!consume(':') || !value())
          return false;
        skipWs();
      } while (consume(','));
      return consume('}');
    }
    case '[': {
      ++I;
      skipWs();
      if (consume(']'))
        return true;
      do {
        if (!value())
          return false;
        skipWs();
      } while (consume(','));
      return consume(']');
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    TraceRecorder::instance().clear();
    TraceRecorder::instance().setEnabled(true);
    MetricsRegistry::instance().clear();
    MetricsRegistry::instance().setEnabled(true);
  }
  void TearDown() override {
    TraceRecorder::instance().setEnabled(false);
    TraceRecorder::instance().clear();
    MetricsRegistry::instance().setEnabled(false);
    MetricsRegistry::instance().clear();
  }
};

const TraceEvent *findEvent(const std::vector<TraceEvent> &Events,
                            const std::string &Name) {
  for (const TraceEvent &E : Events)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

} // namespace

TEST_F(ObsTest, SpansNestAndRecordDepth) {
  {
    Span Outer("outer");
    {
      Span Mid("mid");
      { Span Inner("inner"); }
    }
    { Span Sibling("sibling"); }
  }
  std::vector<TraceEvent> Events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(Events.size(), 4u);
  const TraceEvent *Outer = findEvent(Events, "outer");
  const TraceEvent *Mid = findEvent(Events, "mid");
  const TraceEvent *Inner = findEvent(Events, "inner");
  const TraceEvent *Sibling = findEvent(Events, "sibling");
  ASSERT_TRUE(Outer && Mid && Inner && Sibling);
  EXPECT_EQ(Outer->Depth, 0);
  EXPECT_EQ(Mid->Depth, 1);
  EXPECT_EQ(Inner->Depth, 2);
  EXPECT_EQ(Sibling->Depth, 1);
  // Containment: each child's window lies inside its parent's.
  EXPECT_GE(Mid->StartUs, Outer->StartUs);
  EXPECT_LE(Mid->StartUs + Mid->DurUs, Outer->StartUs + Outer->DurUs + 1.0);
  EXPECT_GE(Inner->StartUs, Mid->StartUs);
  EXPECT_LE(Inner->StartUs + Inner->DurUs, Mid->StartUs + Mid->DurUs + 1.0);
}

TEST_F(ObsTest, CloseReturnsTheRecordedDuration) {
  Span S("timed");
  double Sec = S.close();
  EXPECT_GE(Sec, 0.0);
  // close() is idempotent and stable.
  EXPECT_EQ(S.close(), Sec);
  std::vector<TraceEvent> Events = TraceRecorder::instance().snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_NEAR(Events[0].DurUs, Sec * 1e6, 1e-6);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  TraceRecorder::instance().setEnabled(false);
  {
    Span S("invisible");
    S.arg("key", "value");
    EXPECT_GE(S.close(), 0.0); // timing still works for derived bookkeeping
  }
  EXPECT_EQ(TraceRecorder::instance().eventCount(), 0u);

  MetricsRegistry::instance().setEnabled(false);
  MetricsRegistry::instance().addCounter("nope");
  MetricsRegistry::instance().setGauge("nope", 1.0);
  MetricsRegistry::instance().observe("nope", 0.5);
  EXPECT_EQ(MetricsRegistry::instance().counterValue("nope"), 0u);
  EXPECT_FALSE(MetricsRegistry::instance().gaugeValue("nope").has_value());
  EXPECT_FALSE(MetricsRegistry::instance().histogram("nope").has_value());
}

TEST_F(ObsTest, SpanArgsAppearInExport) {
  {
    Span S("generate", "stage3");
    S.arg("target", "RISCV");
  }
  std::string Json = TraceRecorder::instance().exportChromeTrace();
  EXPECT_NE(Json.find("\"generate\""), std::string::npos);
  EXPECT_NE(Json.find("\"stage3\""), std::string::npos);
  EXPECT_NE(Json.find("\"target\":\"RISCV\""), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  {
    Span A("outer \"quoted\" name");
    A.arg("path", "a\\b\nnewline");
    Span B("inner");
  }
  std::string Json = TraceRecorder::instance().exportChromeTrace();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  // The Chrome trace envelope chrome://tracing and Perfetto expect.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":"), std::string::npos);
}

TEST_F(ObsTest, CountersAndGauges) {
  auto &M = MetricsRegistry::instance();
  M.addCounter("hits");
  M.addCounter("hits", 4);
  EXPECT_EQ(M.counterValue("hits"), 5u);
  EXPECT_EQ(M.counterValue("missing"), 0u);
  M.setGauge("loss", 0.75);
  M.setGauge("loss", 0.25);
  ASSERT_TRUE(M.gaugeValue("loss").has_value());
  EXPECT_DOUBLE_EQ(*M.gaugeValue("loss"), 0.25);
  EXPECT_EQ(M.metricCount(), 2u);
}

TEST_F(ObsTest, HistogramBucketing) {
  auto &M = MetricsRegistry::instance();
  M.defineHistogram("conf", 0.0, 1.0, 10);
  M.observe("conf", 0.0);   // bucket 0
  M.observe("conf", 0.05);  // bucket 0
  M.observe("conf", 0.55);  // bucket 5
  M.observe("conf", 0.999); // bucket 9
  M.observe("conf", 1.0);   // >= hi clamps into the last bucket
  M.observe("conf", -3.0);  // < lo clamps into the first bucket
  std::optional<Histogram> H = M.histogram("conf");
  ASSERT_TRUE(H.has_value());
  ASSERT_EQ(H->Buckets.size(), 10u);
  EXPECT_EQ(H->Buckets[0], 3u);
  EXPECT_EQ(H->Buckets[5], 1u);
  EXPECT_EQ(H->Buckets[9], 2u);
  EXPECT_EQ(H->Count, 6u);
  EXPECT_DOUBLE_EQ(H->MinSeen, -3.0);
  EXPECT_DOUBLE_EQ(H->MaxSeen, 1.0);
  uint64_t Total = 0;
  for (uint64_t B : H->Buckets)
    Total += B;
  EXPECT_EQ(Total, H->Count);
}

TEST_F(ObsTest, ObserveAutoDefinesWithGivenShape) {
  auto &M = MetricsRegistry::instance();
  M.observe("tokens", 30.0, 0.0, 60.0, 6);
  M.observe("tokens", 59.0, 0.0, 60.0, 6); // shape from the first call wins
  std::optional<Histogram> H = M.histogram("tokens");
  ASSERT_TRUE(H.has_value());
  ASSERT_EQ(H->Buckets.size(), 6u);
  EXPECT_EQ(H->Buckets[3], 1u);
  EXPECT_EQ(H->Buckets[5], 1u);
  // The bare overload defaults to 10 buckets over [0, 1).
  M.observe("unit", 0.31);
  std::optional<Histogram> U = M.histogram("unit");
  ASSERT_TRUE(U.has_value());
  ASSERT_EQ(U->Buckets.size(), 10u);
  EXPECT_EQ(U->Buckets[3], 1u);
}

TEST_F(ObsTest, MetricsJsonExportIsValid) {
  auto &M = MetricsRegistry::instance();
  M.addCounter("gen.statements", 12);
  M.setGauge("train.examples_per_sec", 0.125);
  M.observe("gen.confidence", 0.7);
  std::string Json = M.exportJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"gen.statements\": 12"), std::string::npos);
  EXPECT_NE(Json.find("\"train.examples_per_sec\""), std::string::npos);
  EXPECT_NE(Json.find("\"gen.confidence\""), std::string::npos);
  // Empty registries still export valid JSON.
  M.clear();
  EXPECT_TRUE(JsonChecker(M.exportJson()).valid());
}

TEST_F(ObsTest, TextSummaryListsEveryMetric) {
  auto &M = MetricsRegistry::instance();
  M.addCounter("gen.functions", 3);
  M.setGauge("stage1.vocab_size", 512);
  M.observe("gen.confidence", 0.9);
  std::string Text = M.textSummary();
  EXPECT_NE(Text.find("gen.functions"), std::string::npos);
  EXPECT_NE(Text.find("stage1.vocab_size"), std::string::npos);
  EXPECT_NE(Text.find("gen.confidence"), std::string::npos);
  EXPECT_NE(Text.find("histogram"), std::string::npos);
}

TEST_F(ObsTest, ThreadSafetySmoke) {
  auto &M = MetricsRegistry::instance();
  constexpr int Threads = 8;
  constexpr int PerThread = 200;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&M, T] {
      for (int I = 0; I < PerThread; ++I) {
        Span S("worker");
        S.arg("thread", std::to_string(T));
        M.addCounter("work.items");
        M.observe("work.values",
                  static_cast<double>(I % 100) / 100.0);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(TraceRecorder::instance().eventCount(),
            static_cast<size_t>(Threads * PerThread));
  EXPECT_EQ(M.counterValue("work.items"),
            static_cast<uint64_t>(Threads * PerThread));
  std::optional<Histogram> H = M.histogram("work.values");
  ASSERT_TRUE(H.has_value());
  EXPECT_EQ(H->Count, static_cast<uint64_t>(Threads * PerThread));
  // The concurrent trace still exports valid JSON.
  EXPECT_TRUE(JsonChecker(TraceRecorder::instance().exportChromeTrace())
                  .valid());
}

TEST_F(ObsTest, SpanDepthSurvivesDisableMidSpan) {
  auto &R = TraceRecorder::instance();
  {
    Span Outer("outer");
    R.setEnabled(false);
    // Constructed while off: records nothing and must not hold a depth slot.
    { Span Hidden("hidden"); }
    R.setEnabled(true);
    { Span Inner("inner"); }
  }
  { Span After("after"); }
  std::vector<TraceEvent> Events = R.snapshot();
  EXPECT_EQ(findEvent(Events, "hidden"), nullptr);
  const TraceEvent *Outer = findEvent(Events, "outer");
  const TraceEvent *Inner = findEvent(Events, "inner");
  const TraceEvent *After = findEvent(Events, "after");
  ASSERT_TRUE(Outer && Inner && After);
  EXPECT_EQ(Outer->Depth, 0);
  EXPECT_EQ(Inner->Depth, 1); // outer still holds its slot across the toggle
  EXPECT_EQ(After->Depth, 0);
}

TEST_F(ObsTest, SpanDepthSurvivesEnableMidSpan) {
  auto &R = TraceRecorder::instance();
  R.setEnabled(false);
  {
    Span Untracked("untracked"); // never incremented the depth counter...
    R.setEnabled(true);
    { Span Inner("inner"); }
  } // ...so closing it while enabled must not decrement either
  { Span After("after"); }
  std::vector<TraceEvent> Events = R.snapshot();
  EXPECT_EQ(findEvent(Events, "untracked"), nullptr);
  const TraceEvent *Inner = findEvent(Events, "inner");
  const TraceEvent *After = findEvent(Events, "after");
  ASSERT_TRUE(Inner && After);
  EXPECT_EQ(Inner->Depth, 0);
  EXPECT_EQ(After->Depth, 0);
}

TEST_F(ObsTest, TraceExportEscapesControlAndNonAscii) {
  {
    Span S("ctrl\x01name");
    S.arg("path", "tab\there\x1f");
    S.arg("utf8", "s\xC3\xA9quence"); // "séquence", raw UTF-8 bytes
  }
  std::string Trace = TraceRecorder::instance().exportChromeTrace();
  EXPECT_TRUE(JsonChecker(Trace).valid()) << Trace;
  EXPECT_NE(Trace.find("\\u0001"), std::string::npos);
  EXPECT_NE(Trace.find("\\u001f"), std::string::npos);
  EXPECT_NE(Trace.find("\\t"), std::string::npos);
  // Multi-byte UTF-8 passes through unescaped (JSON strings are UTF-8).
  EXPECT_NE(Trace.find("s\xC3\xA9quence"), std::string::npos);
  // The strict parser (which rejects unescaped control characters) agrees.
  EXPECT_TRUE(vega::Json::parse(Trace).isOk());
}

TEST_F(ObsTest, ExportedTidsAreDenseAndCollisionFree) {
  constexpr int Threads = 6;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([] { Span S("tid-span"); });
  for (std::thread &T : Pool)
    T.join();
  std::set<uint64_t> RawIds;
  for (const TraceEvent &E : TraceRecorder::instance().snapshot())
    RawIds.insert(E.ThreadId);
  std::string Trace = TraceRecorder::instance().exportChromeTrace();
  std::set<long> Tids;
  const std::string Key = "\"tid\":";
  for (size_t Pos = Trace.find(Key); Pos != std::string::npos;
       Pos = Trace.find(Key, Pos + Key.size()))
    Tids.insert(std::atol(Trace.c_str() + Pos + Key.size()));
  // One dense tid per distinct thread — no hash folding, no collisions —
  // numbered 0..N-1 in order of first appearance.
  ASSERT_EQ(Tids.size(), RawIds.size());
  EXPECT_EQ(*Tids.begin(), 0);
  EXPECT_EQ(*Tids.rbegin(), static_cast<long>(Tids.size()) - 1);
}

TEST_F(ObsTest, EmptyArgsEventParsesStrictly) {
  { Span S("bare"); }
  std::string Trace = TraceRecorder::instance().exportChromeTrace();
  StatusOr<vega::Json> Parsed = vega::Json::parse(Trace);
  ASSERT_TRUE(Parsed.isOk()) << Trace;
  const vega::Json *Events = Parsed->get("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_EQ(Events->size(), 1u);
  EXPECT_EQ(Events->at(0).getString("name"), "bare");
  const vega::Json *Args = Events->at(0).get("args");
  ASSERT_TRUE(Args && Args->isObject());
}

TEST_F(ObsTest, HistogramQuantiles) {
  Histogram H;
  H.Lo = 0.0;
  H.Hi = 100.0;
  H.Buckets.assign(100, 0);
  for (int I = 0; I < 100; ++I)
    H.observe(static_cast<double>(I) + 0.5);
  EXPECT_NEAR(H.quantile(0.50), 50.0, 1.5);
  EXPECT_NEAR(H.quantile(0.95), 95.0, 1.5);
  EXPECT_NEAR(H.quantile(0.99), 99.0, 1.5);
  // Estimates clamp to the observed range and are monotone in Q.
  EXPECT_GE(H.quantile(0.0), H.MinSeen);
  EXPECT_LE(H.quantile(1.0), H.MaxSeen);
  EXPECT_LE(H.quantile(0.5), H.quantile(0.95));
  EXPECT_LE(H.quantile(0.95), H.quantile(0.99));

  Histogram L;
  L.Lo = 0.01;
  L.Hi = 1e5;
  L.LogScale = true;
  L.Buckets.assign(64, 0);
  for (double V : {1.0, 10.0, 100.0, 1000.0})
    L.observe(V);
  EXPECT_EQ(L.Count, 4u);
  // Four observations a decade apart land in four distinct log buckets.
  EXPECT_NE(L.bucketFor(1.0), L.bucketFor(10.0));
  EXPECT_NE(L.bucketFor(10.0), L.bucketFor(100.0));
  double P50 = L.quantile(0.5);
  EXPECT_GE(P50, 1.0);
  EXPECT_LE(P50, 1000.0);
  EXPECT_LE(P50, L.quantile(0.99));

  Histogram Empty;
  Empty.Buckets.assign(4, 0);
  EXPECT_DOUBLE_EQ(Empty.quantile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramMergeRequiresSameShape) {
  Histogram A, B;
  A.Lo = B.Lo = 0.0;
  A.Hi = B.Hi = 10.0;
  A.Buckets.assign(10, 0);
  B.Buckets.assign(10, 0);
  A.observe(1.0);
  A.observe(2.0);
  B.observe(7.0);
  ASSERT_TRUE(A.sameShape(B));
  ASSERT_TRUE(A.merge(B));
  EXPECT_EQ(A.Count, 3u);
  EXPECT_DOUBLE_EQ(A.Sum, 10.0);
  EXPECT_EQ(A.Buckets[7], 1u);
  EXPECT_DOUBLE_EQ(A.MinSeen, 1.0);
  EXPECT_DOUBLE_EQ(A.MaxSeen, 7.0);
  Histogram C;
  C.Lo = 0.0;
  C.Hi = 5.0; // different range: refuse, change nothing
  C.Buckets.assign(10, 0);
  C.observe(3.0);
  EXPECT_FALSE(A.sameShape(C));
  EXPECT_FALSE(A.merge(C));
  EXPECT_EQ(A.Count, 3u);
  EXPECT_DOUBLE_EQ(A.Sum, 10.0);
}

TEST_F(ObsTest, LabeledCountersCanonicalizeKeyOrder) {
  auto &M = MetricsRegistry::instance();
  M.addCounter("serve.requests", {{"method", "generate"}, {"code", "ok"}});
  // Reversed label order hits the same series.
  M.addCounter("serve.requests", {{"code", "ok"}, {"method", "generate"}});
  std::string Key = MetricsRegistry::labeledName(
      "serve.requests", {{"method", "generate"}, {"code", "ok"}});
  EXPECT_EQ(Key, "serve.requests{code=\"ok\",method=\"generate\"}");
  EXPECT_EQ(M.counterValue(Key), 2u);
  // The unlabeled base counter is a separate series.
  EXPECT_EQ(M.counterValue("serve.requests"), 0u);
  // Label values are quote-escaped in the canonical key.
  EXPECT_EQ(MetricsRegistry::labeledName("n", {{"k", "a\"b"}}),
            "n{k=\"a\\\"b\"}");
}

TEST_F(ObsTest, DeclaredShapesAreLazyAndSurviveClear) {
  auto &M = MetricsRegistry::instance();
  M.declareHistogram("lat.test_ms", 1.0, 1000.0, 16, /*LogScale=*/true);
  // A declaration alone creates no metric (clear()+N adds still count N).
  EXPECT_EQ(M.metricCount(), 0u);
  EXPECT_FALSE(M.histogram("lat.test_ms").has_value());
  // The call-site fallback shape loses to the central declaration.
  M.observe("lat.test_ms", 50.0, 0.0, 1.0, 4);
  std::optional<Histogram> H = M.histogram("lat.test_ms");
  ASSERT_TRUE(H.has_value());
  EXPECT_EQ(H->Buckets.size(), 16u);
  EXPECT_TRUE(H->LogScale);
  EXPECT_EQ(H->Count, 1u);
  M.clear();
  M.observe("lat.test_ms", 2.0); // declaration survives clear()
  H = M.histogram("lat.test_ms");
  ASSERT_TRUE(H.has_value());
  EXPECT_EQ(H->Buckets.size(), 16u);
  EXPECT_TRUE(H->LogScale);
  // The standard serve shapes are pinned by the registry constructor.
  M.observe("serve.request_ms", 12.0);
  std::optional<Histogram> S = M.histogram("serve.request_ms");
  ASSERT_TRUE(S.has_value());
  EXPECT_TRUE(S->LogScale);
  EXPECT_EQ(S->Buckets.size(), 64u);
}

TEST_F(ObsTest, PrometheusExposition) {
  auto &M = MetricsRegistry::instance();
  M.addCounter("serve.requests", 3);
  M.addCounter("serve.requests", {{"method", "generate"}, {"code", "ok"}}, 2);
  M.setGauge("train.loss", 0.5);
  M.observe("gen.confidence", 0.25);
  M.observe("gen.confidence", 0.75);
  std::string Prom = M.exportPrometheus();
  EXPECT_NE(Prom.find("# TYPE vega_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(Prom.find("\nvega_serve_requests_total 3\n"), std::string::npos);
  EXPECT_NE(Prom.find(
                "vega_serve_requests_total{code=\"ok\",method=\"generate\"} 2"),
            std::string::npos);
  EXPECT_NE(Prom.find("# TYPE vega_train_loss gauge"), std::string::npos);
  EXPECT_NE(Prom.find("vega_train_loss 0.5"), std::string::npos);
  EXPECT_NE(Prom.find("# TYPE vega_gen_confidence summary"),
            std::string::npos);
  EXPECT_NE(Prom.find("vega_gen_confidence{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(Prom.find("vega_gen_confidence_sum 1\n"), std::string::npos);
  EXPECT_NE(Prom.find("vega_gen_confidence_count 2\n"), std::string::npos);
  // Labeled + unlabeled series share one family: exactly one TYPE line.
  size_t First = Prom.find("# TYPE vega_serve_requests_total");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Prom.find("# TYPE vega_serve_requests_total", First + 1),
            std::string::npos);
}

TEST_F(ObsTest, SpansCarryRequestIdAndFeedFlightRecorder) {
  RequestContext Ctx("generate");
  {
    RequestScope Scope(&Ctx);
    Span S("gen.work");
  }
  std::vector<TraceEvent> Events = TraceRecorder::instance().snapshot();
  const TraceEvent *E = findEvent(Events, "gen.work");
  ASSERT_TRUE(E);
  bool HasReq = false;
  for (const auto &[K, V] : E->Args)
    if (K == "req" && V == std::to_string(Ctx.id()))
      HasReq = true;
  EXPECT_TRUE(HasReq);
  // The flight-recorder ring captures even with the global recorder off.
  TraceRecorder::instance().setEnabled(false);
  {
    RequestScope Scope(&Ctx);
    Span S("gen.hidden");
  }
  std::vector<RequestContext::SpanRecord> Spans = Ctx.spans();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[0].Name, "gen.work");
  EXPECT_EQ(Spans[1].Name, "gen.hidden");
  EXPECT_GE(Spans[1].StartUs, 0.0);
  EXPECT_EQ(Ctx.spansRecorded(), 2u);
  EXPECT_EQ(Ctx.spansDropped(), 0u);
  // Outside any scope, spans attribute to nothing.
  { Span S("gen.orphan"); }
  EXPECT_EQ(Ctx.spansRecorded(), 2u);
}

TEST_F(ObsTest, RequestRingEvictsOldest) {
  RequestContext Ctx("m", /*RingCapacity=*/2);
  RequestScope Scope(&Ctx);
  { Span A("a"); }
  { Span B("b"); }
  { Span C("c"); }
  std::vector<RequestContext::SpanRecord> Spans = Ctx.spans();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[0].Name, "b"); // chronological, oldest evicted
  EXPECT_EQ(Spans[1].Name, "c");
  EXPECT_EQ(Ctx.spansRecorded(), 3u);
  EXPECT_EQ(Ctx.spansDropped(), 1u);
}

TEST_F(ObsTest, RequestDeadlines) {
  RequestContext Ctx;
  EXPECT_FALSE(Ctx.hasDeadline());
  EXPECT_FALSE(Ctx.expired());
  Ctx.setDeadlineAfterMs(0.0); // non-positive leaves it deadline-free
  EXPECT_FALSE(Ctx.hasDeadline());
  Ctx.setDeadlineAfterMs(1e-6); // relative to creation: already past
  EXPECT_TRUE(Ctx.hasDeadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(Ctx.expired());
  RequestContext Roomy;
  Roomy.setDeadlineAfterMs(60000.0);
  EXPECT_TRUE(Roomy.hasDeadline());
  EXPECT_FALSE(Roomy.expired());
}

TEST_F(ObsTest, RequestContextHopsAcrossThreadPool) {
  RequestContext Ctx("generate");
  ThreadPool Pool(4);
  std::atomic<int> Attributed{0};
  {
    RequestScope Scope(&Ctx);
    Pool.parallelFor(32, [&](size_t) {
      if (RequestContext::current() == &Ctx)
        Attributed.fetch_add(1, std::memory_order_relaxed);
      Span S("gen.lane");
    });
  }
  // Every lane saw the caller's ambient request.
  EXPECT_EQ(Attributed.load(), 32);
  EXPECT_EQ(Ctx.spansRecorded(), 32u);
  // Worker lanes restored their prior (empty) context after the batch.
  std::atomic<int> Clean{0};
  Pool.parallelFor(32, [&](size_t) {
    if (RequestContext::current() == nullptr)
      Clean.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Clean.load(), 32);
}

TEST_F(ObsTest, WriteFilesRoundTrip) {
  {
    Span S("file-span");
  }
  MetricsRegistry::instance().addCounter("file.counter");
  std::string TracePath = ::testing::TempDir() + "obs_trace.json";
  std::string MetricsPath = ::testing::TempDir() + "obs_metrics.json";
  ASSERT_TRUE(TraceRecorder::instance().writeChromeTrace(TracePath));
  ASSERT_TRUE(MetricsRegistry::instance().writeJson(MetricsPath));
  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  };
  std::string Trace = Slurp(TracePath);
  std::string Metrics = Slurp(MetricsPath);
  EXPECT_TRUE(JsonChecker(Trace).valid());
  EXPECT_TRUE(JsonChecker(Metrics).valid());
  EXPECT_NE(Trace.find("file-span"), std::string::npos);
  EXPECT_NE(Metrics.find("file.counter"), std::string::npos);
}
