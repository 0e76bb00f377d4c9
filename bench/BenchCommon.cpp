//===- bench/BenchCommon.cpp - Shared benchmark context ----------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Checkpoint.h"
#include "forkflow/ForkFlow.h"
#include "model/Autograd.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace vega;

int vega::bench::defaultEpochs() {
  if (const char *Env = std::getenv("VEGA_BENCH_EPOCHS"))
    return std::max(1, std::atoi(Env));
  return 18;
}

void vega::bench::initObservability() {
  static bool Done = [] {
    const char *TraceOut = std::getenv("VEGA_TRACE_OUT");
    const char *MetricsOut = std::getenv("VEGA_METRICS_OUT");
    if (TraceOut && *TraceOut)
      obs::TraceRecorder::instance().setEnabled(true);
    if (MetricsOut && *MetricsOut)
      obs::MetricsRegistry::instance().setEnabled(true);
    if ((TraceOut && *TraceOut) || (MetricsOut && *MetricsOut))
      std::atexit([] {
        if (const char *Path = std::getenv("VEGA_TRACE_OUT"))
          if (*Path && !obs::TraceRecorder::instance().writeChromeTrace(Path))
            std::fprintf(stderr, "bench: cannot write trace to '%s'\n", Path);
        if (const char *Path = std::getenv("VEGA_METRICS_OUT"))
          if (*Path && !obs::MetricsRegistry::instance().writeJson(Path))
            std::fprintf(stderr, "bench: cannot write metrics to '%s'\n",
                         Path);
      });
    return true;
  }();
  (void)Done;
}

const BackendCorpus &vega::bench::corpus() {
  static BackendCorpus Corpus =
      BackendCorpus::build(TargetDatabase::standard());
  return Corpus;
}

std::string vega::bench::artifactPath(const VegaOptions &Opts) {
  char Name[48];
  std::snprintf(Name, sizeof(Name), "vega-bench-%016llx.vega",
                static_cast<unsigned long long>(Opts.fingerprint()));
  return Name;
}

std::unique_ptr<VegaSystem>
vega::bench::trainedSystem(const VegaOptions &Opts) {
  initObservability();
  auto Sys = std::make_unique<VegaSystem>(corpus(), Opts);
  std::fprintf(stderr, "bench: stage 1 (code-feature mapping)...\n");
  Sys->buildTemplates();
  Sys->buildDataset();
  const std::string Path = artifactPath(Opts);
  if (SessionCheckpoint::loadWeights(*Sys, Path).isOk()) {
    std::fprintf(stderr, "bench: stage 2 (model loaded from %s)\n",
                 Path.c_str());
    return Sys;
  }
  std::fprintf(stderr, "bench: stage 2 (model creation, saved to %s)...\n",
               Path.c_str());
  Status St = Sys->fineTune();
  if (St.isOk())
    St = SessionCheckpoint::save(*Sys, Path);
  if (!St.isOk()) {
    std::fprintf(stderr, "bench: %s\n", St.toString().c_str());
    std::exit(St.toExitCode());
  }
  return Sys;
}

VegaSystem &vega::bench::system() {
  static VegaSystem *Sys = [] {
    VegaOptions Opts;
    Opts.Model.Epochs = defaultEpochs();
    Opts.Verbose = true;
    return trainedSystem(Opts).release();
  }();
  return *Sys;
}

const GeneratedBackend &vega::bench::generated(const std::string &Target) {
  initObservability();
  static std::map<std::string, GeneratedBackend> Cache;
  auto It = Cache.find(Target);
  if (It != Cache.end())
    return It->second;
  std::fprintf(stderr, "bench: stage 3 (generating %s backend)...\n",
               Target.c_str());
  return Cache.emplace(Target, system().generateBackend(Target)).first->second;
}

const BackendEval &vega::bench::evaluation(const std::string &Target) {
  static std::map<std::string, BackendEval> Cache;
  auto It = Cache.find(Target);
  if (It != Cache.end())
    return It->second;
  // Text verdicts stay the headline numbers; the differential oracle rides
  // along so benches can report the divergence census and Txt-Only column.
  BackendEval Eval =
      evaluateBackend(generated(Target), *corpus().backend(Target),
                      *corpus().targets().find(Target), eval::textOracle(),
                      &eval::differentialOracle());
  return Cache.emplace(Target, std::move(Eval)).first->second;
}

const BackendEval &
vega::bench::forkflowEvaluation(const std::string &Target) {
  static std::map<std::string, BackendEval> Cache;
  auto It = Cache.find(Target);
  if (It != Cache.end())
    return It->second;
  // The paper forks from MIPS for all three targets (§4.2).
  GeneratedBackend FF = forkflowBackend(corpus(), "Mips", Target);
  BackendEval Eval = evaluateBackend(FF, *corpus().backend(Target),
                                     *corpus().targets().find(Target));
  return Cache.emplace(Target, std::move(Eval)).first->second;
}

namespace {

/// The value of the first /proc/cpuinfo line starting with \p Key.
std::string cpuinfoField(const std::string &Key) {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind(Key, 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "";
}

/// The commit of the source tree the bench was built from, with "-dirty"
/// when it has uncommitted changes, or "unknown" when that tree is not a
/// git checkout. Asked of the source tree rather than the working
/// directory, so a report written from anywhere names its own code.
std::string gitRevision() {
  std::string Dir = "'";
  for (char C : std::string(VEGA_BENCH_SOURCE_DIR))
    Dir += C == '\'' ? std::string("'\\''") : std::string(1, C);
  Dir += "'";
  const std::string Cmd = "git -C " + Dir +
                          " describe --always --dirty --abbrev=40 "
                          "--exclude='*' 2>/dev/null";
  std::string Rev;
  if (FILE *P = popen(Cmd.c_str(), "r")) {
    char Buf[128];
    while (std::fgets(Buf, sizeof(Buf), P))
      Rev += Buf;
    pclose(P);
  }
  while (!Rev.empty() && (Rev.back() == '\n' || Rev.back() == '\r'))
    Rev.pop_back();
  return Rev.empty() ? "unknown" : Rev;
}

} // namespace

Json vega::bench::hostInfo() {
  Json Host = Json::object();
  Host.set("nproc",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  std::string Model = cpuinfoField("model name");
  Host.set("cpu", Model.empty() ? "unknown" : Model);
  Json Flags = Json::array();
  std::istringstream Present(cpuinfoField("flags"));
  std::vector<std::string> Have;
  for (std::string F; Present >> F;)
    Have.push_back(F);
  for (const char *F : {"sse4_2", "avx", "avx2", "fma", "avx512f"})
    if (std::find(Have.begin(), Have.end(), F) != Have.end())
      Flags.push(F);
  Host.set("cpu_flags", std::move(Flags));
  Host.set("compiler", VEGA_BENCH_COMPILER);
  Host.set("build_type", VEGA_BENCH_BUILD_TYPE);
  Host.set("git_sha", gitRevision());
  Host.set("gemm_variant", detail::gemmVariant());
  return Host;
}
