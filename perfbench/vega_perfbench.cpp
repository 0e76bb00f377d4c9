//===- perfbench/vega_perfbench.cpp - The repository benchmark -----------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark for the whole system, driven in-process through the public
/// library API (VegaSession, VegaSystem, serve::VegaServer,
/// repair::RepairEngine, evaluateBackend, eval::Oracle). Four workloads:
///
///   gen-serial  one closed-loop caller at Jobs=1 generating all corpus
///               targets in a seeded order (pure Stage-3 compute)
///   serve-open  an in-process VegaServer fed by one open-loop generator at
///               a fixed offered rate, Zipf-skewed targets
///   repair      generate -> RepairEngine::repairBackend (beam 4, rounds 2,
///               text gate + differential classifier) over the eval targets
///   train       Stage 1 + a fixed Stage-2 schedule from a fresh model
///
/// `run` mode prints human-readable metric lines, a provenance block, a
/// per-layer ledger (traced runs), and, as its last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
/// end-to-end metrics; traced runs the per-layer metrics. perfbench/NOTES.md
/// documents every metric.
///
/// Correctness gate: every generated backend is hashed over its
/// "vega-backend-1" bytes and checked against a hash ledger kept next to the
/// session artifact, so bytes must agree across iterations, across
/// workloads (Jobs=1 vs pooled and co-batched serving), and across runs.
///
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/VegaSession.h"
#include "corpus/Corpus.h"
#include "eval/Harness.h"
#include "eval/Oracle.h"
#include "obs/Trace.h"
#include "repair/RepairEngine.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace vega;

namespace {

using Clock = std::chrono::steady_clock;

// ---- Fixed workload parameters (changing any of them changes the
// benchmark, not the program under test). ----

/// Stage-2 schedule of the session artifact workloads 1-3 load (the
/// vega-cli `build` default).
constexpr int SessionEpochs = 8;
/// Set-ups per run; setup_s is their median. A train set-up (one corpus
/// build) is much shorter, so it repeats more often.
constexpr int SetupReps = 5;
constexpr int TrainSetupReps = 15;
/// serve-open: offered load (requests/s), about 70% of the capacity
/// measured on a 4-vCPU Xeon host (about 3.6 req/s before the backlog
/// grows), and the latency limit for goodput.
constexpr double ServeRateRps = 2.5;
constexpr double ServeSloMs = 1000.0;
/// serve-open: Zipf exponent over the corpus targets (rank = corpus order).
constexpr double ZipfExponent = 1.0;
/// train: Stage-2 epochs and the function-group share trained on per
/// repetition (the split seed stays the VegaOptions default).
constexpr int TrainEpochs = 1;
constexpr double TrainFraction = 0.1;
/// Target generated once per set-up to warm the session.
constexpr const char *WarmTarget = "Lanai";

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolated quantile (0 on an empty sample).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double mean(const std::vector<double> &V) {
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
}

uint64_t fnv1a(std::string_view S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

unsigned lanes() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

template <typename T> void shuffle(std::vector<T> &V, std::mt19937_64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(Rng() % I)]);
}

VegaOptions sessionOptions() {
  VegaOptions Opts;
  Opts.Model.Epochs = SessionEpochs;
  Opts.Jobs = static_cast<int>(lanes());
  Opts.TrainJobs = static_cast<int>(lanes());
  return Opts;
}

/// Reference hashes of generated bytes, persisted next to the session
/// artifact so repeated runs (and other workloads) must reproduce them.
class HashLedger {
public:
  explicit HashLedger(std::string Path) : Path(std::move(Path)) {
    std::ifstream In(this->Path);
    std::string Key, Hash;
    while (In >> Key >> Hash)
      Known[Key] = Hash;
  }

  /// Records \p Key -> \p Bytes' hash; false when it contradicts a hash
  /// seen earlier in this run or in an earlier run.
  bool check(const std::string &Key, std::string_view Bytes) {
    std::string Hash = hex64(fnv1a(Bytes));
    std::lock_guard<std::mutex> Lock(Mu);
    auto [It, Inserted] = Known.emplace(Key, Hash);
    if (Inserted) {
      Dirty = true;
      return true;
    }
    return It->second == Hash;
  }

  bool save() {
    if (!Dirty || Path.empty())
      return true;
    std::string Tmp = Path + ".tmp";
    {
      std::ofstream Out(Tmp);
      for (const auto &[Key, Hash] : Known)
        Out << Key << ' ' << Hash << '\n';
      if (!Out)
        return false;
    }
    return std::rename(Tmp.c_str(), Path.c_str()) == 0;
  }

private:
  std::string Path;
  std::mutex Mu;
  std::map<std::string, std::string> Known;
  bool Dirty = false;
};

/// The real oracle behind a timing span: the benchmark's own "eval.oracle"
/// layer, handed to evaluateBackend and RepairOptions. It also keeps its own
/// call count and time, so untraced runs can report the layer too.
class TimedOracle final : public eval::Oracle {
public:
  explicit TimedOracle(const eval::Oracle &Inner) : Inner(Inner) {}
  std::string name() const override { return Inner.name(); }
  eval::OracleVerdict score(const FunctionAST &Candidate,
                            const FunctionAST &Golden,
                            const std::string &InterfaceName,
                            const TargetTraits &Traits) const override {
    obs::Span S("eval.oracle", "bench");
    Clock::time_point T0 = Clock::now();
    eval::OracleVerdict V =
        Inner.score(Candidate, Golden, InterfaceName, Traits);
    Nanos.fetch_add(static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - T0)
                            .count()),
                    std::memory_order_relaxed);
    Calls.fetch_add(1, std::memory_order_relaxed);
    return V;
  }
  uint64_t calls() const { return Calls.load(std::memory_order_relaxed); }
  double ms() const {
    return static_cast<double>(Nanos.load(std::memory_order_relaxed)) / 1e6;
  }

private:
  const eval::Oracle &Inner;
  mutable std::atomic<uint64_t> Calls{0}, Nanos{0};
};

// ---- Trace ledger ----

/// Per-layer totals over the traced window, from obs::TraceRecorder events.
struct LayerTotals {
  uint64_t Calls = 0;
  double SelfMs = 0.0;
  std::vector<double> InclMs;
};

struct TraceLedger {
  std::map<std::string, LayerTotals> Layers;
  double WindowMs = 0.0;       ///< summed duration of the top-level spans
  double AttributedMs = 0.0;   ///< summed self time of every other span
  double UnattributedMs = 0.0; ///< top-level time with no span open anywhere

  /// The totals of \p Layer (empty when it never ran).
  LayerTotals get(const std::string &Layer) const {
    auto It = Layers.find(Layer);
    return It == Layers.end() ? LayerTotals() : It->second;
  }
};

/// Layer of one span name: the library's own names, with the Stage-3
/// function units folded into core.* layers.
std::string layerOf(const std::string &Span) {
  if (Span == "gen.row" || Span == "gen.row_group")
    return "core.row";
  if (Span.rfind("gen.", 0) == 0)
    return "core.assemble";
  if (Span == "beam.decode")
    return "model.beam";
  if (Span == "stage3.generate_backend")
    return "core.generate";
  return Span;
}

struct Interval {
  double Lo, Hi;
};

std::vector<Interval> mergeIntervals(std::vector<Interval> V) {
  std::sort(V.begin(), V.end(),
            [](const Interval &A, const Interval &B) { return A.Lo < B.Lo; });
  std::vector<Interval> Out;
  for (const Interval &I : V) {
    if (!Out.empty() && I.Lo <= Out.back().Hi)
      Out.back().Hi = std::max(Out.back().Hi, I.Hi);
    else
      Out.push_back(I);
  }
  return Out;
}

/// Builds the ledger from \p Events: self time per span (duration minus
/// direct children on the same thread), grouped by layer. Spans named
/// \p TopName are the benchmark's own per-operation spans; their time not
/// covered by any other span on any thread is "unattributed".
TraceLedger buildLedger(const std::vector<obs::TraceEvent> &Events,
                        const std::string &TopName) {
  TraceLedger L;
  std::map<uint64_t, std::vector<size_t>> ByThread;
  for (size_t I = 0; I < Events.size(); ++I)
    ByThread[Events[I].ThreadId].push_back(I);
  std::vector<double> ChildUs(Events.size(), 0.0);
  for (auto &[Tid, Idx] : ByThread) {
    (void)Tid;
    std::sort(Idx.begin(), Idx.end(), [&](size_t A, size_t B) {
      if (Events[A].StartUs != Events[B].StartUs)
        return Events[A].StartUs < Events[B].StartUs;
      return Events[A].DurUs > Events[B].DurUs;
    });
    std::vector<size_t> Stack;
    for (size_t I : Idx) {
      const obs::TraceEvent &E = Events[I];
      while (!Stack.empty() && Events[Stack.back()].StartUs +
                                       Events[Stack.back()].DurUs <=
                                   E.StartUs)
        Stack.pop_back();
      if (!Stack.empty())
        ChildUs[Stack.back()] += E.DurUs;
      Stack.push_back(I);
    }
  }
  std::vector<Interval> Top, Covered;
  for (size_t I = 0; I < Events.size(); ++I) {
    const obs::TraceEvent &E = Events[I];
    Interval Span{E.StartUs, E.StartUs + E.DurUs};
    if (E.Name == TopName) {
      L.WindowMs += E.DurUs / 1000.0;
      Top.push_back(Span);
      continue;
    }
    Covered.push_back(Span);
    double SelfMs = std::max(0.0, E.DurUs - ChildUs[I]) / 1000.0;
    LayerTotals &T = L.Layers[layerOf(E.Name)];
    ++T.Calls;
    T.SelfMs += SelfMs;
    T.InclMs.push_back(E.DurUs / 1000.0);
    L.AttributedMs += SelfMs;
  }
  Top = mergeIntervals(std::move(Top));
  Covered = mergeIntervals(std::move(Covered));
  size_t C = 0;
  for (const Interval &T : Top) {
    double Gap = T.Hi - T.Lo;
    while (C < Covered.size() && Covered[C].Hi <= T.Lo)
      ++C;
    for (size_t K = C; K < Covered.size() && Covered[K].Lo < T.Hi; ++K)
      Gap -= std::min(T.Hi, Covered[K].Hi) - std::max(T.Lo, Covered[K].Lo);
    L.UnattributedMs += std::max(0.0, Gap) / 1000.0;
  }
  return L;
}

void printLedger(const std::string &Workload, const TraceLedger &L,
                 double Ops) {
  std::vector<std::pair<std::string, const LayerTotals *>> Rows;
  for (const auto &[Name, T] : L.Layers)
    Rows.emplace_back(Name, &T);
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second->SelfMs > B.second->SelfMs;
  });
  std::printf("ledger %s: %.0f operations, %.3f ms traced wall time\n",
              Workload.c_str(), Ops, L.WindowMs);
  std::printf("  %-24s %12s %14s %14s %8s\n", "layer", "calls/op",
              "self ms/op", "incl ms p50", "share");
  for (const auto &[Name, T] : Rows)
    std::printf("  %-24s %12.2f %14.4f %14.4f %7.1f%%\n", Name.c_str(),
                static_cast<double>(T->Calls) / Ops, T->SelfMs / Ops,
                quantile(T->InclMs, 0.5),
                L.WindowMs > 0 ? 100.0 * T->SelfMs / L.WindowMs : 0.0);
  std::printf("  %-24s %12s %14.4f %14s %7.1f%%\n", "other.unattributed", "-",
              L.UnattributedMs / Ops, "-",
              L.WindowMs > 0 ? 100.0 * L.UnattributedMs / L.WindowMs : 0.0);
}

// ---- Run bookkeeping ----

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string SessionPath;
  std::string LedgerPath;
  double SessionBuildS = -1.0;
  std::string GitSha = "unknown";
  std::string SourceDigest = "unknown";
  std::string LibHash = "unknown";
};

class Run {
public:
  explicit Run(const Options &Opts)
      : Opts(Opts), Ledger(Opts.LedgerPath), Rng(Opts.Seed) {}

  const Options &Opts;
  HashLedger Ledger;
  std::mt19937_64 Rng;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  std::vector<Metric> EndToEnd, PerLayer;
  std::vector<Metric> Named; ///< the workload-specific names, printed only

  bool Valid = true; ///< false when the run cannot report its metrics
  void fail(const std::string &Why) {
    ++Failed;
    note(Why);
  }
  void invalidate(const std::string &Why) {
    Valid = false;
    note(Why);
  }
  void note(const std::string &Why) {
    if (Problems.size() < 8)
      Problems.push_back(Why);
  }
  /// Checks \p Bytes (a backend's vega-backend-1 rendering, a repair
  /// report, or a train artifact) against the ledger entry for \p Key.
  void checkBytes(const std::string &Key, const std::string &Bytes) {
    if (!Ledger.check(Key, Bytes))
      fail("bytes of " + Key + " differ from the reference");
  }
  void endToEnd(const std::string &Name, double Value,
                const std::string &Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const std::string &Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
  void named(const std::string &Name, double Value, const std::string &Unit) {
    Named.push_back({Name, Value, Unit});
  }
};

/// Layer metrics every workload reports from its traced window, normalized
/// per operation so they do not scale with the run length.
void commonLayers(Run &R, const TraceLedger &L, double Ops,
                  double CorpusBuildMs, double TraceOverhead) {
  LayerTotals Enc = L.get("model.encode"), Dec = L.get("model.decode");
  R.layer("corpus.build_ms", CorpusBuildMs, "ms");
  R.layer("model.encode_ms", Enc.SelfMs / Ops, "ms");
  R.layer("model.encode_calls", static_cast<double>(Enc.Calls) / Ops, "count");
  R.layer("model.decode_ms", Dec.SelfMs / Ops, "ms");
  R.layer("model.decode_calls", static_cast<double>(Dec.Calls) / Ops, "count");
  R.layer("bench.trace_overhead", TraceOverhead, "ratio");
  R.layer("other.unattributed_ms", L.UnattributedMs / Ops, "ms");
}

/// Stage-3 layers shared by the workloads that generate backends.
void stage3Layers(Run &R, const TraceLedger &L, double Ops) {
  LayerTotals Assemble = L.get("core.assemble"), Row = L.get("core.row"),
              Enc = L.get("model.encode");
  R.named("core.unit_ms_p50", quantile(Assemble.InclMs, 0.5), "ms");
  R.named("core.assemble_self_ms", Assemble.SelfMs / Ops, "ms");
  R.named("model.encodes_per_row",
          Row.Calls ? static_cast<double>(Enc.Calls) /
                          static_cast<double>(Row.Calls)
                    : 0.0,
          "ratio");
}

/// Evaluation layers from the oracle's own counters: \p EvalMs holds the
/// wall time of each evaluateBackend call, \p Per the operations the oracle
/// time is spread over.
void evalLayers(Run &R, const std::vector<double> &EvalMs,
                const std::vector<const TimedOracle *> &Oracles, double Per) {
  double Ms = 0.0, Calls = 0.0;
  for (const TimedOracle *O : Oracles) {
    Ms += O->ms();
    Calls += static_cast<double>(O->calls());
  }
  R.named("eval.evaluate_ms", quantile(EvalMs, 0.5), "ms");
  R.named("eval.oracle_ms", Ms / Per, "ms");
  R.named("eval.oracle_calls", Calls / Per, "count");
}

// ---- Set-up ----

/// A loaded, warmed session over its own corpus.
struct Loaded {
  std::unique_ptr<BackendCorpus> Corpus;
  std::unique_ptr<VegaSession> Session;
};

struct SetupTimes {
  std::vector<double> TotalS, CorpusMs, LoadMs, WarmMs;
};

/// Builds the corpus, loads the session, and warms it SetupReps times (each
/// from scratch); returns the last.
StatusOr<Loaded> setUp(Run &R, unsigned Jobs, SetupTimes &Times,
                       Clock::time_point ProcessStart) {
  Loaded Out;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Out.Session.reset();
    Out.Corpus.reset();
    Clock::time_point T0 = Rep == 0 ? ProcessStart : Clock::now();
    Clock::time_point C0 = Clock::now();
    Out.Corpus = std::make_unique<BackendCorpus>(
        BackendCorpus::build(TargetDatabase::standard()));
    Clock::time_point C1 = Clock::now();
    StatusOr<std::unique_ptr<VegaSession>> S =
        VegaSession::load(*Out.Corpus, R.Opts.SessionPath);
    if (!S.isOk())
      return S.status();
    Out.Session = std::move(*S);
    Out.Session->setJobs(static_cast<int>(Jobs));
    Clock::time_point C2 = Clock::now();
    StatusOr<GeneratedBackend> B = Out.Session->generate(WarmTarget);
    if (!B.isOk())
      return B.status();
    Clock::time_point C3 = Clock::now();
    R.checkBytes(WarmTarget, serve::backendToJson(*B).dump());
    Times.TotalS.push_back(std::chrono::duration<double>(C3 - T0).count());
    Times.CorpusMs.push_back(msBetween(C0, C1));
    Times.LoadMs.push_back(msBetween(C1, C2));
    Times.WarmMs.push_back(msBetween(C2, C3));
  }
  return Out;
}

void setupLayers(Run &R, const SetupTimes &T) {
  R.named("core.session_load_ms", quantile(T.LoadMs, 0.5), "ms");
  R.named("core.warmup_ms", quantile(T.WarmMs, 0.5), "ms");
}

/// Mean pass@1 over the evaluation targets, judged by the golden backend and
/// the interpreter oracle (never by the generator). Appends each
/// evaluateBackend call's wall time to \p EvalMs.
double passAt1(Run &R, const BackendCorpus &Corpus,
               const std::map<std::string, GeneratedBackend> &Backends,
               const eval::Oracle &Oracle, std::vector<double> &EvalMs) {
  std::vector<double> Acc;
  for (const std::string &T : TargetDatabase::evaluationTargetNames()) {
    auto It = Backends.find(T);
    if (It == Backends.end()) {
      R.fail("no backend generated for evaluation target " + T);
      continue;
    }
    Clock::time_point T0 = Clock::now();
    BackendEval E = evaluateBackend(It->second, *Corpus.backend(T),
                                    *Corpus.targets().find(T), Oracle);
    EvalMs.push_back(msBetween(T0, Clock::now()));
    Acc.push_back(E.functionAccuracy());
  }
  return mean(Acc);
}

void enableTrace(bool On) { obs::TraceRecorder::instance().setEnabled(On); }

/// Runs \p Round in alternating untraced / traced rounds (only untraced ones
/// unless tracing) while at least half of another round fits in the run —
/// at least one round of each kind — and returns per-round seconds.
struct Rounds {
  std::vector<double> Untraced, Traced;
};
Rounds alternate(const Options &Opts, const std::function<void(bool)> &Round) {
  Rounds Out;
  Clock::time_point Start = Clock::now();
  double Last = 0.0;
  for (size_t I = 0;; ++I) {
    bool Traced = Opts.Trace && I % 2 == 1;
    bool HaveBoth =
        !Out.Untraced.empty() && (!Opts.Trace || !Out.Traced.empty());
    if (HaveBoth && secondsSince(Start) + Last / 2 > Opts.Seconds)
      break;
    enableTrace(Traced);
    Clock::time_point T0 = Clock::now();
    Round(Traced);
    Last = secondsSince(T0);
    enableTrace(false);
    (Traced ? Out.Traced : Out.Untraced).push_back(Last);
  }
  return Out;
}

// ---- Workload 1: gen-serial ----

int runGenSerial(Run &R, Clock::time_point ProcessStart) {
  SetupTimes Setup;
  StatusOr<Loaded> L = setUp(R, 1, Setup, ProcessStart);
  if (!L.isOk()) {
    std::fprintf(stderr, "gen-serial: %s\n", L.status().toString().c_str());
    return 1;
  }
  VegaSession &Session = *L->Session;
  std::vector<std::string> Targets;
  for (const TargetTraits &T : L->Corpus->targets().targets())
    Targets.push_back(T.Name);

  std::vector<double> LatMs;
  std::map<std::string, GeneratedBackend> EvalBackends;
  const auto &EvalNames = TargetDatabase::evaluationTargetNames();
  size_t TracedOps = 0;
  double GenSeconds = 0.0;
  Rounds Passes = alternate(R.Opts, [&](bool Traced) {
    std::vector<std::string> Order = Targets;
    shuffle(Order, R.Rng);
    for (const std::string &T : Order) {
      ++R.Attempted;
      Clock::time_point T0 = Clock::now();
      StatusOr<GeneratedBackend> B = [&] {
        obs::Span S("bench.generate", "bench");
        return Session.generate(T);
      }();
      Clock::time_point T1 = Clock::now();
      if (!B.isOk()) {
        R.fail(T + ": " + B.status().toString());
        continue;
      }
      if (!Traced) {
        LatMs.push_back(msBetween(T0, T1));
        GenSeconds += std::chrono::duration<double>(T1 - T0).count();
      } else {
        ++TracedOps;
      }
      R.checkBytes(T, serve::backendToJson(*B).dump());
      if (std::find(EvalNames.begin(), EvalNames.end(), T) != EvalNames.end())
        EvalBackends[T] = std::move(*B);
    }
  });

  TimedOracle Oracle(eval::textOracle());
  std::vector<double> EvalMs;
  double Pass1 = passAt1(R, *L->Corpus, EvalBackends, Oracle, EvalMs);

  double Throughput =
      GenSeconds > 0 ? static_cast<double>(LatMs.size()) / GenSeconds : 0.0;
  R.named("backends_per_s", Throughput, "1/s");
  R.named("backend_ms_p50", quantile(LatMs, 0.5), "ms");
  R.named("backend_ms_p90", quantile(LatMs, 0.9), "ms");
  R.named("pass1", Pass1, "fraction");
  R.endToEnd("setup_s", quantile(Setup.TotalS, 0.5), "s");
  R.endToEnd("throughput_per_s", Throughput, "1/s");
  R.endToEnd("latency_ms_p50", quantile(LatMs, 0.5), "ms");
  R.endToEnd("latency_ms_tail", quantile(LatMs, 0.9), "ms");
  R.endToEnd("accuracy", Pass1, "fraction");

  if (R.Opts.Trace) {
    TraceLedger TL =
        buildLedger(obs::TraceRecorder::instance().snapshot(),
                    "bench.generate");
    double Ops = static_cast<double>(std::max<size_t>(1, TracedOps));
    double Overhead = mean(Passes.Traced) / mean(Passes.Untraced);
    printLedger("gen-serial", TL, Ops);
    // Ledger acceptance: the layers' self times add up to the end-to-end
    // Stage-3 wall time within 5%.
    double Gap = std::fabs(TL.WindowMs - TL.AttributedMs) /
                 std::max(1e-9, TL.WindowMs);
    std::printf("ledger gen-serial: layers sum to %.3f of %.3f ms (%.2f%% "
                "apart) -> %s\n",
                TL.AttributedMs, TL.WindowMs, 100.0 * Gap,
                Gap <= 0.05 ? "within 5%" : "OUTSIDE 5%");
    if (Gap > 0.05)
      R.invalidate("gen-serial ledger does not sum to the wall time within 5%");
    commonLayers(R, TL, Ops, quantile(Setup.CorpusMs, 0.5), Overhead);
    stage3Layers(R, TL, Ops);
    evalLayers(R, EvalMs, {&Oracle}, static_cast<double>(EvalMs.size()));
    setupLayers(R, Setup);
    auto Hot = std::max_element(
        TL.Layers.begin(), TL.Layers.end(), [](const auto &A, const auto &B) {
          return A.second.SelfMs < B.second.SelfMs;
        });
    if (Hot != TL.Layers.end())
      std::printf("ledger gen-serial: hottest layer is %s (%.1f%% of wall "
                  "time)\n",
                  Hot->first.c_str(), 100.0 * Hot->second.SelfMs / TL.WindowMs);
  }
  return 0;
}

// ---- Workload 2: serve-open ----

/// Extracts the "result" member of a JSON-RPC response line verbatim (the
/// server writes jsonrpc, id, result in that order).
std::string resultBytes(const std::string &Response) {
  const std::string Key = ",\"result\":";
  size_t Pos = Response.find(Key);
  if (Pos == std::string::npos || Response.empty() || Response.back() != '}')
    return std::string();
  Pos += Key.size();
  return Response.substr(Pos, Response.size() - 1 - Pos);
}

int runServeOpen(Run &R, Clock::time_point ProcessStart) {
  SetupTimes Setup;
  StatusOr<Loaded> L = setUp(R, lanes(), Setup, ProcessStart);
  if (!L.isOk()) {
    std::fprintf(stderr, "serve-open: %s\n", L.status().toString().c_str());
    return 1;
  }
  VegaSession &Session = *L->Session;
  serve::VegaServer Server(Session, serve::ServerOptions());

  std::vector<std::string> Targets;
  for (const TargetTraits &T : L->Corpus->targets().targets())
    Targets.push_back(T.Name);
  // A phase of N requests draws its targets as the Zipf mix apportioned
  // exactly (largest remainder) and shuffled by the seed, so seeds vary the
  // arrival order but not how much of each target the phase asks for.
  auto Mix = [&](size_t N) {
    std::vector<double> Quota;
    double Norm = 0.0;
    for (size_t I = 0; I < Targets.size(); ++I) {
      Quota.push_back(1.0 / std::pow(static_cast<double>(I + 1), ZipfExponent));
      Norm += Quota.back();
    }
    std::vector<std::pair<double, size_t>> Remainders;
    std::vector<std::string> Out;
    for (size_t I = 0; I < Targets.size(); ++I) {
      double Exact = static_cast<double>(N) * Quota[I] / Norm;
      Out.insert(Out.end(), static_cast<size_t>(Exact), Targets[I]);
      Remainders.emplace_back(Exact - std::floor(Exact), I);
    }
    std::stable_sort(
        Remainders.begin(), Remainders.end(),
        [](const auto &A, const auto &B) { return A.first > B.first; });
    for (size_t K = 0; Out.size() < N; ++K)
      Out.push_back(Targets[Remainders[K].second]);
    shuffle(Out, R.Rng);
    return Out;
  };

  /// One open-loop phase: fixed-rate arrivals for \p Seconds, then drain.
  struct Phase {
    std::vector<double> LatMs, LagMs;
    size_t Good = 0;
    double Seconds = 0.0;
    double BacklogStart = 0.0, BacklogEnd = 0.0;
  };
  auto RunPhase = [&](double Seconds, bool Traced) {
    Phase P;
    P.Seconds = Seconds;
    size_t N = std::max<size_t>(1, static_cast<size_t>(Seconds * ServeRateRps));
    struct Pending {
      std::string Target;
      Clock::time_point Due;
      std::future<std::string> Response;
      bool Done = false;
    };
    std::vector<Pending> Reqs(N);
    std::vector<std::string> Draws = Mix(N);
    std::vector<double> Outstanding(N, 0.0);
    std::atomic<size_t> Submitted{0}, Completed{0};
    std::vector<Clock::time_point> DoneAt(N);
    std::mutex Mu;
    // The collector timestamps completions within ~0.2 ms of the server
    // resolving them, independent of the generator's schedule. It stops once
    // asked to and every submitted request has completed.
    std::jthread Collector([&](std::stop_token Stop) {
      while (true) {
        size_t Have = Submitted.load();
        bool Idle = true;
        for (size_t I = 0; I < Have; ++I) {
          std::lock_guard<std::mutex> Lock(Mu);
          if (Reqs[I].Done)
            continue;
          Idle = false;
          if (Reqs[I].Response.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            DoneAt[I] = Clock::now();
            Reqs[I].Done = true;
            Completed.fetch_add(1);
          }
        }
        if (Stop.stop_requested() && Idle &&
            Completed.load() == Submitted.load())
          return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    enableTrace(Traced);
    obs::Span Window("bench.serve_window", "bench");
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I < N; ++I) {
      const std::string &Target = Draws[I];
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(I) / ServeRateRps));
      std::this_thread::sleep_until(Due);
      P.LagMs.push_back(msBetween(Due, Clock::now()));
      std::string Line = "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(I) +
                         ",\"method\":\"generate\",\"params\":{\"target\":\"" +
                         Target + "\"}}";
      std::future<std::string> F = Server.submitLine(std::move(Line));
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Reqs[I].Target = Target;
        Reqs[I].Due = Due;
        Reqs[I].Response = std::move(F);
      }
      Outstanding[I] = static_cast<double>(I - Completed.load());
      Submitted.store(I + 1);
      ++R.Attempted;
    }
    Collector.request_stop();
    Collector.join();
    Window.close();
    enableTrace(false);
    // Backlog trend: mean outstanding requests over the first and the last
    // third of the arrivals.
    size_t Third = std::max<size_t>(1, N / 3);
    P.BacklogStart = mean(std::vector<double>(Outstanding.begin(),
                                              Outstanding.begin() + Third));
    P.BacklogEnd =
        mean(std::vector<double>(Outstanding.end() - Third, Outstanding.end()));
    for (size_t I = 0; I < N; ++I) {
      std::string Response = Reqs[I].Response.get();
      double Ms = msBetween(Reqs[I].Due, DoneAt[I]);
      std::string Bytes = resultBytes(Response);
      if (Bytes.empty()) {
        R.fail("request " + std::to_string(I) + " (" + Reqs[I].Target +
               ") failed: " + Response.substr(0, 160));
        continue;
      }
      R.checkBytes(Reqs[I].Target, Bytes);
      P.LatMs.push_back(Ms);
      if (Ms <= ServeSloMs)
        ++P.Good;
    }
    return P;
  };

  Phase Main, TracedPhase;
  if (R.Opts.Trace) {
    Main = RunPhase(R.Opts.Seconds / 2, false);
    TracedPhase = RunPhase(R.Opts.Seconds / 2, true);
  } else {
    Main = RunPhase(R.Opts.Seconds, false);
  }

  // pass@1 over the evaluation targets; the scheduler is idle, and its
  // engine lock keeps the session's pool exclusive anyway.
  std::map<std::string, GeneratedBackend> EvalBackends;
  {
    std::lock_guard<std::mutex> Lock(Server.scheduler().engineMutex());
    for (const std::string &T : TargetDatabase::evaluationTargetNames()) {
      StatusOr<GeneratedBackend> B = Session.generate(T);
      if (!B.isOk()) {
        R.fail(T + ": " + B.status().toString());
        continue;
      }
      R.checkBytes(T, serve::backendToJson(*B).dump());
      EvalBackends[T] = std::move(*B);
    }
  }
  TimedOracle Oracle(eval::textOracle());
  std::vector<double> EvalMs;
  double Pass1 = passAt1(R, *L->Corpus, EvalBackends, Oracle, EvalMs);

  bool BacklogGrew = Main.BacklogEnd > Main.BacklogStart + 4.0 &&
                     Main.BacklogEnd > 2.0 * Main.BacklogStart;
  std::printf("serve-open: offered %.2f req/s, backlog %.2f -> %.2f "
              "outstanding (first vs last third of arrivals)%s, generator "
              "lag p50 %.3f ms / max %.3f ms\n",
              ServeRateRps, Main.BacklogStart, Main.BacklogEnd,
              BacklogGrew ? " -- BACKLOG GREW, latency not valid" : "",
              quantile(Main.LagMs, 0.5),
              Main.LagMs.empty()
                  ? 0.0
                  : *std::max_element(Main.LagMs.begin(), Main.LagMs.end()));
  if (BacklogGrew)
    R.invalidate("serve-open backlog grew over the run: the offered rate "
                 "exceeds capacity, so no latency is reported");

  double Goodput = static_cast<double>(Main.Good) / Main.Seconds;
  R.named("serve_ms_p50", quantile(Main.LatMs, 0.5), "ms");
  R.named("serve_ms_p95", quantile(Main.LatMs, 0.95), "ms");
  R.named("serve_goodput_rps", Goodput, "1/s");
  R.named("pass1", Pass1, "fraction");
  R.endToEnd("setup_s", quantile(Setup.TotalS, 0.5), "s");
  R.endToEnd("throughput_per_s", Goodput, "1/s");
  R.endToEnd("latency_ms_p50", quantile(Main.LatMs, 0.5), "ms");
  R.endToEnd("latency_ms_tail", quantile(Main.LatMs, 0.9), "ms");
  R.endToEnd("accuracy", Pass1, "fraction");

  if (R.Opts.Trace) {
    TraceLedger TL = buildLedger(obs::TraceRecorder::instance().snapshot(),
                                 "bench.serve_window");
    double Ops =
        static_cast<double>(std::max<size_t>(1, TracedPhase.LatMs.size()));
    double Overhead =
        quantile(TracedPhase.LatMs, 0.5) / quantile(Main.LatMs, 0.5);
    printLedger("serve-open", TL, Ops);
    commonLayers(R, TL, Ops, quantile(Setup.CorpusMs, 0.5), Overhead);
    stage3Layers(R, TL, Ops);
    setupLayers(R, Setup);
    // Scheduler view through the `stats` RPC.
    std::string StatsLine = Server.handleLine(
        "{\"jsonrpc\":\"2.0\",\"id\":\"stats\",\"method\":\"stats\"}");
    StatusOr<Json> Stats = Json::parse(StatsLine);
    const Json *Result = Stats.isOk() ? Stats->get("result") : nullptr;
    const Json *Quantiles = Result ? Result->get("quantiles") : nullptr;
    const Json *Sched = Result ? Result->get("scheduler") : nullptr;
    auto Q = [&](const char *Hist, const char *Field) {
      const Json *H = Quantiles ? Quantiles->get(Hist) : nullptr;
      return H ? H->getNumber(Field) : 0.0;
    };
    double Admitted = Sched ? Sched->getNumber("admitted") : 0.0;
    double Attached = Sched ? Sched->getNumber("attached") : 0.0;
    R.named("serve.queue_ms_p50", Q("serve.queue_ms", "p50"), "ms");
    R.named("serve.queue_ms_p95", Q("serve.queue_ms", "p95"), "ms");
    R.named("serve.request_ms_p95", Q("serve.request_ms", "p95"), "ms");
    R.named("serve.batch_size_mean", Q("serve.batch_size", "mean"), "count");
    R.named("serve.attach_ratio",
            Admitted + Attached > 0 ? Attached / (Admitted + Attached) : 0.0,
            "ratio");
    R.named("serve.rejected", Sched ? Sched->getNumber("rejected") : 0.0,
            "count");
    R.named("bench.generator_lag_ms", quantile(Main.LagMs, 0.95), "ms");
  }
  return 0;
}

// ---- Workload 3: repair ----

int runRepair(Run &R, Clock::time_point ProcessStart) {
  SetupTimes Setup;
  StatusOr<Loaded> L = setUp(R, lanes(), Setup, ProcessStart);
  if (!L.isOk()) {
    std::fprintf(stderr, "repair: %s\n", L.status().toString().c_str());
    return 1;
  }
  VegaSession &Session = *L->Session;

  TimedOracle Gate(eval::textOracle());
  TimedOracle Classifier(eval::differentialOracle());
  repair::RepairOptions RO;
  RO.BeamWidth = 4;
  RO.MaxRounds = 2;
  RO.Jobs = static_cast<int>(lanes());
  RO.OracleImpl = &Gate;
  RO.Classifier = &Classifier;
  repair::RepairEngine Engine(Session.system(), RO);

  std::vector<double> LatMs;
  double RepairSeconds = 0.0;
  size_t TracedOps = 0, Candidates = 0, Replaced = 0;
  std::map<std::string, repair::RepairReport> Last;
  Rounds Passes = alternate(R.Opts, [&](bool Traced) {
    std::vector<std::string> Order = TargetDatabase::evaluationTargetNames();
    shuffle(Order, R.Rng);
    for (const std::string &T : Order) {
      ++R.Attempted;
      Clock::time_point T0 = Clock::now();
      obs::Span S("bench.repair", "bench");
      StatusOr<GeneratedBackend> B = Session.generate(T);
      if (!B.isOk()) {
        R.fail(T + ": " + B.status().toString());
        continue;
      }
      StatusOr<repair::RepairReport> Rep = Engine.repairBackend(*B);
      S.close();
      Clock::time_point T1 = Clock::now();
      if (!Rep.isOk()) {
        R.fail(T + ": " + Rep.status().toString());
        continue;
      }
      if (!Traced) {
        LatMs.push_back(msBetween(T0, T1));
        RepairSeconds += std::chrono::duration<double>(T1 - T0).count();
      } else {
        ++TracedOps;
        Candidates += Rep->CandidatesTried;
        Replaced += Rep->StatementsAutoRepaired;
      }
      R.checkBytes(T, serve::backendToJson(*B).dump());
      R.checkBytes("repair:" + T, serve::repairToJson(*Rep).dump());
      Last[T] = std::move(*Rep);
    }
  });

  // The repaired backends are re-judged independently: a fresh evaluation
  // must reproduce the report's post-repair accuracy.
  std::vector<double> Pre, Post, EvalMs;
  for (const auto &[T, Rep] : Last) {
    Clock::time_point T0 = Clock::now();
    BackendEval E =
        evaluateBackend(Rep.RepairedBackend, *L->Corpus->backend(T),
                        *L->Corpus->targets().find(T), eval::textOracle());
    EvalMs.push_back(msBetween(T0, Clock::now()));
    if (E.functionAccuracy() != Rep.RepairedEval.functionAccuracy())
      R.fail("repair report for " + T +
             " disagrees with an independent evaluation");
    Pre.push_back(Rep.BaselineEval.functionAccuracy());
    Post.push_back(E.functionAccuracy());
  }

  double Throughput =
      RepairSeconds > 0 ? static_cast<double>(LatMs.size()) / RepairSeconds
                        : 0.0;
  R.named("repairs_per_s", Throughput, "1/s");
  R.named("repair_ms_p50", quantile(LatMs, 0.5), "ms");
  R.named("pass1", mean(Pre), "fraction");
  R.named("post_repair_pass", mean(Post), "fraction");
  R.endToEnd("setup_s", quantile(Setup.TotalS, 0.5), "s");
  R.endToEnd("throughput_per_s", Throughput, "1/s");
  R.endToEnd("latency_ms_p50", quantile(LatMs, 0.5), "ms");
  R.endToEnd("latency_ms_tail", quantile(LatMs, 0.9), "ms");
  R.endToEnd("accuracy", mean(Post), "fraction");

  if (R.Opts.Trace) {
    TraceLedger TL =
        buildLedger(obs::TraceRecorder::instance().snapshot(), "bench.repair");
    double Ops = static_cast<double>(std::max<size_t>(1, TracedOps));
    double Overhead = mean(Passes.Traced) / mean(Passes.Untraced);
    printLedger("repair", TL, Ops);
    commonLayers(R, TL, Ops, quantile(Setup.CorpusMs, 0.5), Overhead);
    evalLayers(R, EvalMs, {&Gate, &Classifier},
               static_cast<double>(R.Attempted));
    setupLayers(R, Setup);
    LayerTotals Beam = TL.get("model.beam");
    R.named("model.beam_ms", Beam.SelfMs / Ops, "ms");
    R.named("model.beam_calls", static_cast<double>(Beam.Calls) / Ops, "count");
    R.named("repair.candidates_tried", static_cast<double>(Candidates) / Ops,
            "count");
    R.named("repair.accept_ratio",
            Candidates ? static_cast<double>(Replaced) /
                             static_cast<double>(Candidates)
                       : 0.0,
            "ratio");
  }
  return 0;
}

// ---- Workload 4: train ----

int runTrain(Run &R, Clock::time_point ProcessStart) {
  // Set-up for training is a built corpus; Stage 1 is part of the work.
  std::vector<double> SetupS, CorpusMs;
  std::unique_ptr<BackendCorpus> Corpus;
  for (int Rep = 0; Rep < TrainSetupReps; ++Rep) {
    Corpus.reset();
    Clock::time_point T0 = Rep == 0 ? ProcessStart : Clock::now();
    Clock::time_point C0 = Clock::now();
    Corpus = std::make_unique<BackendCorpus>(
        BackendCorpus::build(TargetDatabase::standard()));
    SetupS.push_back(secondsSince(T0));
    CorpusMs.push_back(msBetween(C0, Clock::now()));
  }

  VegaOptions Opts;
  Opts.Model.Epochs = TrainEpochs;
  Opts.TrainFraction = TrainFraction;
  Opts.Jobs = static_cast<int>(lanes());
  Opts.TrainJobs = static_cast<int>(lanes());

  std::vector<double> RepMs, ExactMatch;
  double TrainSeconds = 0.0, Examples = 0.0;
  size_t TracedOps = 0;
  Rounds Reps = alternate(R.Opts, [&](bool Traced) {
    ++R.Attempted;
    VegaSystem System(*Corpus, Opts);
    Clock::time_point T0 = Clock::now();
    // One operation: Stage 1, the Stage-2 schedule, and validation on
    // held-out pairs (the throughput counts training time only).
    obs::Span S("bench.train", "bench");
    System.buildTemplates();
    System.buildDataset();
    System.initModelFromCache();
    Status St = System.fineTune();
    Clock::time_point T1 = Clock::now();
    if (!St.isOk()) {
      R.fail("fineTune: " + St.toString());
      return;
    }
    ExactMatch.push_back(System.verificationExactMatch(200));
    S.close();
    if (!Traced) {
      RepMs.push_back(msBetween(T0, T1));
      TrainSeconds += std::chrono::duration<double>(T1 - T0).count();
      Examples += static_cast<double>(System.trainPairCount() * TrainEpochs);
    } else {
      ++TracedOps;
    }
    // Training is bit-deterministic: the whole artifact must reproduce.
    StatusOr<std::string> Blob = SessionCheckpoint::serialize(System);
    if (!Blob.isOk()) {
      R.fail("serialize: " + Blob.status().toString());
      return;
    }
    R.checkBytes("train", *Blob);
  });

  double Throughput = TrainSeconds > 0 ? Examples / TrainSeconds : 0.0;
  R.named("train_examples_per_s", Throughput, "1/s");
  R.named("verification_exact_match", mean(ExactMatch), "fraction");
  R.endToEnd("setup_s", quantile(SetupS, 0.5), "s");
  R.endToEnd("throughput_per_s", Throughput, "1/s");
  R.endToEnd("latency_ms_p50", quantile(RepMs, 0.5), "ms");
  R.endToEnd("latency_ms_tail",
             RepMs.empty() ? 0.0
                           : *std::max_element(RepMs.begin(), RepMs.end()),
             "ms");
  R.endToEnd("accuracy", mean(ExactMatch), "fraction");

  if (R.Opts.Trace) {
    TraceLedger TL =
        buildLedger(obs::TraceRecorder::instance().snapshot(), "bench.train");
    double Ops = static_cast<double>(std::max<size_t>(1, TracedOps));
    double Overhead = mean(Reps.Traced) / mean(Reps.Untraced);
    printLedger("train", TL, Ops);
    commonLayers(R, TL, Ops, quantile(CorpusMs, 0.5), Overhead);
    auto SelfPerOp = [&](const char *Span) {
      return TL.get(Span).SelfMs / Ops;
    };
    R.named("stage1.templatize_ms", SelfPerOp("stage1.templatize"), "ms");
    R.named("stage1.features_ms", SelfPerOp("stage1.analyze_features"), "ms");
    R.named("stage1.dataset_ms", SelfPerOp("stage1.build_dataset"), "ms");
    LayerTotals Epoch = TL.get("stage2.epoch");
    R.named("stage2.epoch_s", mean(Epoch.InclMs) / 1000.0, "s");
    R.named("stage2.batch_ms_p50", quantile(TL.get("stage2.batch").InclMs, 0.5),
            "ms");
  }
  return 0;
}

// ---- Provenance and output ----

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line, Model = "unknown";
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Model = Line.substr(Colon + 2);
      break;
    }
  return Model;
}

std::string cpuFlags() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("flags", 0) == 0) {
      Line += ' ';
      std::string Out;
      for (const char *F : {"avx2", "fma", "avx512f", "avx512bw", "avx512vnni"})
        if (Line.find(std::string(" ") + F + " ") != std::string::npos)
          Out += (Out.empty() ? "" : ",") + std::string(F);
      return Out.empty() ? "none" : Out;
    }
  return "unknown";
}

Json provenance(const Options &Opts) {
  Json P = Json::object();
  P.set("schema", "vega-perfbench-provenance-1");
  P.set("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  P.set("lanes", static_cast<uint64_t>(lanes()));
  P.set("cpu", cpuModel());
  P.set("cpuFlags", cpuFlags());
  P.set("compiler", VEGA_BENCH_COMPILER);
  P.set("buildType", VEGA_BENCH_BUILD_TYPE);
  P.set("gitSha", Opts.GitSha);
  P.set("sourceDigest", Opts.SourceDigest);
  P.set("libraryHash", Opts.LibHash);
  VegaOptions SO = sessionOptions();
  P.set("sessionFingerprint", hex64(SO.fingerprint()));
  P.set("sessionEpochs", SO.Model.Epochs);
  P.set("sessionBuildS", Opts.SessionBuildS);
  P.set("workload", Opts.Workload);
  P.set("seed", Opts.Seed);
  P.set("seconds", Opts.Seconds);
  P.set("trace", Opts.Trace);
  return P;
}

int finish(Run &R, int Rc) {
  if (Rc != 0)
    return Rc;
  if (!R.Ledger.save())
    R.fail("cannot write the hash ledger " + R.Opts.LedgerPath);
  double PeakMb = peakRssMb();
  R.named("peak_rss_mb", PeakMb, "MB");
  R.named("fail_ratio",
          R.Attempted ? static_cast<double>(R.Failed) /
                            static_cast<double>(R.Attempted)
                      : 0.0,
          "ratio");
  if (!R.Opts.Trace)
    R.endToEnd("peak_rss_mb", PeakMb, "MB");

  std::printf("provenance: %s\n", provenance(R.Opts).dump().c_str());
  for (const Metric &M : R.Named)
    std::printf("metric %s %s = %.6g %s\n", R.Opts.Workload.c_str(),
                M.Name.c_str(), M.Value, M.Unit.c_str());
  bool Correct = R.Failed == 0 && R.Valid;
  std::printf("correctness: %s (%llu attempted, %llu failed; bytes checked "
              "against %s)\n",
              Correct ? "ok" : "FAILED",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Opts.LedgerPath.c_str());
  for (const std::string &P : R.Problems)
    std::printf("  problem: %s\n", P.c_str());

  Json Metrics = Json::object();
  for (const Metric &M : R.Opts.Trace ? R.PerLayer : R.EndToEnd) {
    Json V = Json::object();
    V.set("value", M.Value);
    V.set("unit", M.Unit);
    Metrics.set(M.Name, std::move(V));
  }
  Json Out = Json::object();
  Out.set("correct", Correct);
  Out.set("attempted", R.Attempted);
  Out.set("failed", R.Failed);
  Out.set("metrics", std::move(Metrics));
  std::printf("%s\n", Out.dump().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 3;
}

int buildSession(const std::string &Path) {
  Clock::time_point T0 = Clock::now();
  StatusOr<std::unique_ptr<VegaSession>> S =
      VegaSession::build(sessionOptions());
  if (!S.isOk()) {
    std::fprintf(stderr, "build-session: %s\n", S.status().toString().c_str());
    return 1;
  }
  if (Status St = (*S)->save(Path); !St.isOk()) {
    std::fprintf(stderr, "build-session: %s\n", St.toString().c_str());
    return 1;
  }
  std::printf("%.6f\n", secondsSince(T0));
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: vega_perfbench fingerprint\n"
      "       vega_perfbench build-session <out.vega>\n"
      "       vega_perfbench run --workload=<gen-serial|serve-open|repair|"
      "train> --seed=<n> --seconds=<s> --trace=<0|1> --session=<file.vega> "
      "--ledger=<file> [--session-build-s=<s>] [--git-sha=<sha>] "
      "[--source-digest=<hex>] [--lib-hash=<hex>]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Clock::time_point ProcessStart = Clock::now();
  if (argc < 2)
    return usage();
  std::string Mode = argv[1];
  if (Mode == "fingerprint") {
    std::printf("%s %d\n", hex64(sessionOptions().fingerprint()).c_str(),
                SessionEpochs);
    return 0;
  }
  if (Mode == "build-session")
    return argc == 3 ? buildSession(argv[2]) : usage();
  if (Mode != "run")
    return usage();

  Options Opts;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    size_t Eq = Arg.find('=');
    if (Arg.rfind("--", 0) != 0 || Eq == std::string::npos)
      return usage();
    std::string Key = Arg.substr(2, Eq - 2), Val = Arg.substr(Eq + 1);
    if (Key == "workload")
      Opts.Workload = Val;
    else if (Key == "seed")
      Opts.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "seconds")
      Opts.Seconds = std::atof(Val.c_str());
    else if (Key == "trace")
      Opts.Trace = Val == "1";
    else if (Key == "session")
      Opts.SessionPath = Val;
    else if (Key == "ledger")
      Opts.LedgerPath = Val;
    else if (Key == "session-build-s")
      Opts.SessionBuildS = std::atof(Val.c_str());
    else if (Key == "git-sha")
      Opts.GitSha = Val;
    else if (Key == "source-digest")
      Opts.SourceDigest = Val;
    else if (Key == "lib-hash")
      Opts.LibHash = Val;
    else
      return usage();
  }
  if (Opts.Seconds <= 0)
    return usage();

  Run R(Opts);
  if (Opts.Workload == "gen-serial")
    return finish(R, runGenSerial(R, ProcessStart));
  if (Opts.Workload == "serve-open")
    return finish(R, runServeOpen(R, ProcessStart));
  if (Opts.Workload == "repair")
    return finish(R, runRepair(R, ProcessStart));
  if (Opts.Workload == "train")
    return finish(R, runTrain(R, ProcessStart));
  return usage();
}
