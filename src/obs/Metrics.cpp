//===- obs/Metrics.cpp - Named counters, gauges, histograms ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Trace.h"
#include "support/TextTable.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace vega;
using namespace vega::obs;

namespace {

std::string formatNum(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; fold everything
/// else (the registry's dots, mostly) to '_'.
std::string promName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  if (!Out.empty() && Out[0] >= '0' && Out[0] <= '9')
    Out.insert(Out.begin(), '_');
  return Out;
}

/// Splits a canonical counter key into (base name, "{...}" label suffix).
std::pair<std::string, std::string> splitLabels(const std::string &Key) {
  size_t Brace = Key.find('{');
  if (Brace == std::string::npos)
    return {Key, ""};
  return {Key.substr(0, Brace), Key.substr(Brace)};
}

const double kSummaryQuantiles[] = {0.5, 0.95, 0.99};

} // namespace

size_t Histogram::bucketFor(double Value) const {
  if (Buckets.empty())
    return 0;
  if (Value < Lo)
    return 0;
  if (Value >= Hi)
    return Buckets.size() - 1;
  size_t Idx;
  if (LogScale) {
    // Buckets uniform in log-space: bucket i covers
    // [Lo * R^(i/N), Lo * R^((i+1)/N)) with R = Hi/Lo.
    double Frac = std::log(Value / Lo) / std::log(Hi / Lo);
    Idx = static_cast<size_t>(Frac * static_cast<double>(Buckets.size()));
  } else {
    double Width = (Hi - Lo) / static_cast<double>(Buckets.size());
    Idx = static_cast<size_t>((Value - Lo) / Width);
  }
  return std::min(Idx, Buckets.size() - 1);
}

double Histogram::bucketLowerBound(size_t Idx) const {
  if (Buckets.empty())
    return Lo;
  double N = static_cast<double>(Buckets.size());
  if (LogScale)
    return Lo * std::pow(Hi / Lo, static_cast<double>(Idx) / N);
  return Lo + (Hi - Lo) * static_cast<double>(Idx) / N;
}

double Histogram::bucketUpperBound(size_t Idx) const {
  return bucketLowerBound(Idx + 1);
}

void Histogram::observe(double Value) {
  if (Buckets.empty())
    return;
  if (Count == 0) {
    MinSeen = MaxSeen = Value;
  } else {
    MinSeen = std::min(MinSeen, Value);
    MaxSeen = std::max(MaxSeen, Value);
  }
  ++Buckets[bucketFor(Value)];
  ++Count;
  Sum += Value;
}

double Histogram::quantile(double Q) const {
  if (Count == 0 || Buckets.empty())
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  // The rank of the target observation, 1-based.
  double Target = Q * static_cast<double>(Count);
  if (Target < 1.0)
    Target = 1.0;
  uint64_t Cum = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    if (Buckets[I] == 0)
      continue;
    double Before = static_cast<double>(Cum);
    Cum += Buckets[I];
    if (static_cast<double>(Cum) >= Target) {
      double Frac = (Target - Before) / static_cast<double>(Buckets[I]);
      double V = bucketLowerBound(I) +
                 Frac * (bucketUpperBound(I) - bucketLowerBound(I));
      return std::min(std::max(V, MinSeen), MaxSeen);
    }
  }
  return MaxSeen;
}

bool Histogram::sameShape(const Histogram &Other) const {
  return Lo == Other.Lo && Hi == Other.Hi && LogScale == Other.LogScale &&
         Buckets.size() == Other.Buckets.size();
}

bool Histogram::merge(const Histogram &Other) {
  if (!sameShape(Other))
    return false;
  if (Other.Count == 0)
    return true;
  if (Count == 0) {
    MinSeen = Other.MinSeen;
    MaxSeen = Other.MaxSeen;
  } else {
    MinSeen = std::min(MinSeen, Other.MinSeen);
    MaxSeen = std::max(MaxSeen, Other.MaxSeen);
  }
  for (size_t I = 0; I < Buckets.size(); ++I)
    Buckets[I] += Other.Buckets[I];
  Count += Other.Count;
  Sum += Other.Sum;
  return true;
}

MetricsRegistry &MetricsRegistry::instance() {
  static MetricsRegistry Registry;
  return Registry;
}

MetricsRegistry::MetricsRegistry() {
  // The standard histogram layouts, pinned once so no call site can cause a
  // first-call-wins divergence. Latency metrics are log-bucketed: 10µs to
  // 10min in 64 geometric buckets keeps p50 and p99 resolvable decades
  // apart at fixed memory.
  declareHistogram("serve.request_ms", 0.01, 600000.0, 64, /*LogScale=*/true);
  declareHistogram("serve.queue_ms", 0.01, 600000.0, 64, /*LogScale=*/true);
  declareHistogram("serve.batch_size", 0.0, 32.0, 32);
  declareHistogram("gen.confidence", 0.0, 1.0, 10);
  declareHistogram("train.epoch_loss", 0.0, 16.0, 32);
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters.clear();
  Gauges.clear();
  Histograms.clear();
  // Declared shapes are definitions, not data — they survive.
}

void MetricsRegistry::addCounter(const std::string &Name, uint64_t Delta) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

std::string
MetricsRegistry::labeledName(const std::string &Name,
                             const std::vector<MetricLabel> &Labels) {
  std::vector<MetricLabel> Sorted = Labels;
  std::sort(Sorted.begin(), Sorted.end());
  std::string Key = Name + "{";
  bool First = true;
  for (const auto &[K, V] : Sorted) {
    if (!First)
      Key += ",";
    First = false;
    Key += K + "=\"";
    for (char C : V) {
      if (C == '\\' || C == '"')
        Key += '\\';
      if (C == '\n') {
        Key += "\\n";
        continue;
      }
      Key += C;
    }
    Key += "\"";
  }
  Key += "}";
  return Key;
}

void MetricsRegistry::addCounter(const std::string &Name,
                                 const std::vector<MetricLabel> &Labels,
                                 uint64_t Delta) {
  if (!enabled())
    return;
  std::string Key = labeledName(Name, Labels);
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Key] += Delta;
}

void MetricsRegistry::setGauge(const std::string &Name, double Value) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Gauges[Name] = Value;
}

Histogram &
MetricsRegistry::materializeLocked(const std::string &Name,
                                   const HistogramShape &Fallback) {
  auto It = Histograms.find(Name);
  if (It != Histograms.end())
    return It->second;
  HistogramShape Shape = Fallback;
  auto Decl = Declared.find(Name);
  if (Decl != Declared.end())
    Shape = Decl->second;
  Histogram &H = Histograms[Name];
  H.LogScale = Shape.LogScale;
  H.Lo = Shape.Lo;
  if (H.LogScale && H.Lo <= 0.0)
    H.Lo = 1e-9;
  H.Hi = Shape.Hi > H.Lo ? Shape.Hi : H.Lo + 1.0;
  H.Buckets.assign(std::max<size_t>(1, Shape.BucketCount), 0);
  return H;
}

void MetricsRegistry::declareHistogram(const std::string &Name, double Lo,
                                       double Hi, size_t BucketCount,
                                       bool LogScale) {
  std::lock_guard<std::mutex> Lock(Mu);
  Declared.emplace(Name, HistogramShape{Lo, Hi, BucketCount, LogScale});
}

void MetricsRegistry::defineHistogram(const std::string &Name, double Lo,
                                      double Hi, size_t BucketCount,
                                      bool LogScale) {
  std::lock_guard<std::mutex> Lock(Mu);
  Declared.emplace(Name, HistogramShape{Lo, Hi, BucketCount, LogScale});
  materializeLocked(Name, HistogramShape{Lo, Hi, BucketCount, LogScale});
}

void MetricsRegistry::observe(const std::string &Name, double Value) {
  observe(Name, Value, 0.0, 1.0, 10);
}

void MetricsRegistry::observe(const std::string &Name, double Value, double Lo,
                              double Hi, size_t BucketCount) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  materializeLocked(Name, HistogramShape{Lo, Hi, BucketCount, false})
      .observe(Value);
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

std::optional<double> MetricsRegistry::gaugeValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    return std::nullopt;
  return It->second;
}

std::optional<Histogram>
MetricsRegistry::histogram(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    return std::nullopt;
  return It->second;
}

size_t MetricsRegistry::metricCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters.size() + Gauges.size() + Histograms.size();
}

std::string MetricsRegistry::exportJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Name) + "\": " + std::to_string(Value);
  }
  Out += "\n  },\n  \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Name) + "\": " + formatNum(Value);
  }
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + jsonEscape(Name) + "\": {\"lo\": " + formatNum(H.Lo) +
           ", \"hi\": " + formatNum(H.Hi) +
           ", \"log\": " + (H.LogScale ? "true" : "false") +
           ", \"count\": " + std::to_string(H.Count) +
           ", \"sum\": " + formatNum(H.Sum) +
           ", \"min\": " + formatNum(H.MinSeen) +
           ", \"max\": " + formatNum(H.MaxSeen) +
           ", \"p50\": " + formatNum(H.quantile(0.5)) +
           ", \"p95\": " + formatNum(H.quantile(0.95)) +
           ", \"p99\": " + formatNum(H.quantile(0.99)) + ", \"buckets\": [";
    for (size_t I = 0; I < H.Buckets.size(); ++I) {
      if (I)
        Out += ", ";
      Out += std::to_string(H.Buckets[I]);
    }
    Out += "]}";
  }
  Out += "\n  }\n}\n";
  return Out;
}

std::string MetricsRegistry::exportPrometheus() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  // Counters, grouped by base name so each family gets one TYPE line.
  std::string LastFamily;
  for (const auto &[Key, Value] : Counters) {
    auto [Base, Labels] = splitLabels(Key);
    std::string Family = "vega_" + promName(Base) + "_total";
    if (Family != LastFamily) {
      Out += "# TYPE " + Family + " counter\n";
      LastFamily = Family;
    }
    Out += Family + Labels + " " + std::to_string(Value) + "\n";
  }
  for (const auto &[Name, Value] : Gauges) {
    std::string Family = "vega_" + promName(Name);
    Out += "# TYPE " + Family + " gauge\n";
    Out += Family + " " + formatNum(Value) + "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string Family = "vega_" + promName(Name);
    Out += "# TYPE " + Family + " summary\n";
    for (double Q : kSummaryQuantiles)
      Out += Family + "{quantile=\"" + formatNum(Q) + "\"} " +
             formatNum(H.quantile(Q)) + "\n";
    Out += Family + "_sum " + formatNum(H.Sum) + "\n";
    Out += Family + "_count " + std::to_string(H.Count) + "\n";
  }
  return Out;
}

bool MetricsRegistry::writeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << exportJson();
  return static_cast<bool>(Out);
}

bool MetricsRegistry::writePrometheus(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << exportPrometheus();
  return static_cast<bool>(Out);
}

std::string MetricsRegistry::textSummary() const {
  std::lock_guard<std::mutex> Lock(Mu);
  TextTable Table;
  Table.setHeader({"Metric", "Kind", "Value", "Detail"});
  for (const auto &[Name, Value] : Counters)
    Table.addRow({Name, "counter", std::to_string(Value), ""});
  for (const auto &[Name, Value] : Gauges)
    Table.addRow({Name, "gauge", formatNum(Value), ""});
  for (const auto &[Name, H] : Histograms) {
    std::string Detail = "n=" + std::to_string(H.Count) +
                         " mean=" + formatNum(H.mean()) +
                         " p50=" + formatNum(H.quantile(0.5)) +
                         " p99=" + formatNum(H.quantile(0.99)) +
                         " min=" + formatNum(H.MinSeen) +
                         " max=" + formatNum(H.MaxSeen);
    std::string Sparkline;
    uint64_t Peak = 0;
    for (uint64_t B : H.Buckets)
      Peak = std::max(Peak, B);
    for (uint64_t B : H.Buckets) {
      static const char *Levels[] = {" ", ".", ":", "-", "=", "#"};
      size_t L = Peak ? (B * 5 + Peak - 1) / Peak : 0;
      Sparkline += Levels[std::min<size_t>(L, 5)];
    }
    Table.addRow({Name, "histogram", "[" + Sparkline + "]", Detail});
  }
  return Table.render();
}
