//===- bench/BenchCommon.h - Shared benchmark context ------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared state for the table/figure benches. Model Creation is the paper's
/// 72-hour stage; here it is a one-time fine-tune per configuration, saved
/// as a .vega artifact named by its options fingerprint
/// (vega-bench-<fingerprint>.vega in the working directory) and loaded by
/// every later bench process with the same configuration. Each bench
/// process generates the backends it needs from that model (a fraction of
/// a second per target) and memoizes them in-process.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_BENCH_BENCHCOMMON_H
#define VEGA_BENCH_BENCHCOMMON_H

#include "eval/EffortModel.h"
#include "eval/Harness.h"
#include "support/Json.h"

#include <memory>
#include <string>

namespace vega {
namespace bench {

/// Number of fine-tuning epochs used by the bench suite.
int defaultEpochs();

/// Observability hook for bench runs: when VEGA_TRACE_OUT and/or
/// VEGA_METRICS_OUT name output files, enables the obs layer and registers
/// an atexit handler that dumps the Chrome trace / metrics JSON when the
/// bench binary finishes. Idempotent; called by trainedSystem() and
/// generated().
void initObservability();

/// The shared corpus.
const BackendCorpus &corpus();

/// The bench artifact of a model trained under \p Opts:
/// vega-bench-<options fingerprint>.vega in the working directory.
std::string artifactPath(const VegaOptions &Opts);

/// A system that has run Stage 1 under \p Opts and holds the model of
/// artifactPath(Opts). When that file is absent or does not match (another
/// corpus or vocabulary), the model is fine-tuned and the artifact saved
/// first, so the suite trains once per configuration. Exits the process on
/// failure.
std::unique_ptr<VegaSystem> trainedSystem(const VegaOptions &Opts);

/// The shared trained system: trainedSystem() at defaultEpochs() and
/// default options.
VegaSystem &system();

/// The generated backend for one evaluation target, generated by system()
/// on first use and memoized for the rest of the process.
const GeneratedBackend &generated(const std::string &Target);

/// Harness evaluation of the generated backend for \p Target.
const BackendEval &evaluation(const std::string &Target);

/// ForkFlow (from MIPS, per §4.2) evaluation for \p Target.
const BackendEval &forkflowEvaluation(const std::string &Target);

/// Where a BENCH report was measured: nproc, CPU model and SIMD flags,
/// compiler, build type, git revision, and the GEMM kernel variant the
/// loader picked (`gemm_variant`: "avx2" or "default").
Json hostInfo();

} // namespace bench
} // namespace vega

#endif // VEGA_BENCH_BENCHCOMMON_H
