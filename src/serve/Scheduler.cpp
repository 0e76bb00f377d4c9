//===- serve/Scheduler.cpp - Continuous unit-level batching ------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "serve/Scheduler.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <utility>

using namespace vega;
using namespace vega::serve;

Scheduler::Scheduler(VegaSession &Session, SchedulerOptions Options)
    : Session(Session), Options(Options) {
  if (this->Options.Window < 1)
    this->Options.Window = 1;
  if (this->Options.MaxQueue < 0)
    this->Options.MaxQueue = 0;
  LoopThread = std::thread([this] { loop(); });
  CompletionThread = std::thread([this] { completionLoop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  Cv.notify_all();
  LoopThread.join();
  // The loop is gone; whatever it left behind gets a terminal answer. A
  // waiter is never silently dropped — transports block on the callback.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (PendingAdmission &P : Queue)
      failWaiter(std::move(P.W), Status::unavailable("server shutting down"));
    Queue.clear();
    for (ActiveGeneration &G : Active)
      for (Waiter &W : G.Waiters)
        failWaiter(std::move(W), Status::unavailable("server shutting down"));
    Active.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(CompMu);
    CompStop = true;
  }
  CompCv.notify_all();
  CompletionThread.join();
}

Status Scheduler::submit(const std::string &Target,
                         std::shared_ptr<obs::RequestContext> Ctx,
                         Completion Done) {
  Waiter W{std::move(Ctx), std::move(Done)};
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stop)
      return Status::unavailable("scheduler stopped");
    // Attach-dedup: a target already decoding serves every new request for
    // it from the same generation. Window-exempt — no new decode work.
    for (ActiveGeneration &G : Active)
      if (G.Target == Target) {
        if (W.Ctx)
          obs::MetricsRegistry::instance().observe("serve.queue_ms",
                                                   W.Ctx->elapsedMs());
        G.Waiters.push_back(std::move(W));
        Attached.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::instance().addCounter("serve.sched.attached");
        return Status::ok();
      }
    if (Options.MaxQueue > 0 &&
        Queue.size() >= static_cast<size_t>(Options.MaxQueue)) {
      Rejected.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::instance().addCounter("serve.sched.rejected");
      return Status::resourceExhausted(
          "admission queue full (" + std::to_string(Queue.size()) +
          " waiting, window " + std::to_string(Options.Window) + ")");
    }
    Queue.push_back(PendingAdmission{Target, std::move(W)});
    publishGauges();
  }
  // The loop thread, or the idle lanes of a running fan-out.
  Cv.notify_all();
  return Status::ok();
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats S;
  S.Steps = Steps.load(std::memory_order_relaxed);
  S.Admitted = Admitted.load(std::memory_order_relaxed);
  S.Attached = Attached.load(std::memory_order_relaxed);
  S.Retired = Retired.load(std::memory_order_relaxed);
  S.Rejected = Rejected.load(std::memory_order_relaxed);
  S.Expired = Expired.load(std::memory_order_relaxed);
  S.MaxCoActive = MaxCoActive.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(Mu);
  S.Active = Active.size();
  S.QueueDepth = Queue.size();
  return S;
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> Lock(Mu);
  Paused = true;
}

void Scheduler::resume() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Paused = false;
  }
  Cv.notify_all();
}

std::unique_lock<std::mutex> Scheduler::lockEngine() {
  // The count changes under Mu, like everything the loop and the lanes
  // wait on.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    EngineWaiters.fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> Engine(EngineMu);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    EngineWaiters.fetch_sub(1, std::memory_order_relaxed);
  }
  Cv.notify_all();
  return Engine;
}

void Scheduler::loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] {
        return Stop ||
               (!Paused && EngineWaiters.load(std::memory_order_relaxed) == 0 &&
                (!Queue.empty() || !Active.empty()));
      });
      if (Stop)
        return;
      FanOutCounted = false;
      FanOutOver = false;
    }
    std::lock_guard<std::mutex> EngineLock(EngineMu);
    Session.system().runGenerateUnits([this] { return pull(); });
  }
}

std::optional<VegaSystem::ClaimedUnit> Scheduler::pull() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    retireLocked();
    if (FanOutOver || Stop || Paused ||
        EngineWaiters.load(std::memory_order_relaxed) > 0)
      break;
    const size_t Before = Active.size();
    admitLocked();
    // Units to claim for the lanes that wait below (a retirement just made
    // room in a full window, say).
    if (Active.size() > Before)
      Cv.notify_all();
    // Oldest first: requests of equal size finish earliest on average when
    // the oldest goes first, and later ones still fill every lane it
    // cannot use.
    for (ActiveGeneration &G : Active)
      if (std::optional<size_t> U = G.Handle.claimUnit()) {
        auto &Metrics = obs::MetricsRegistry::instance();
        if (!FanOutCounted) {
          FanOutCounted = true;
          Steps.fetch_add(1, std::memory_order_relaxed);
          Metrics.addCounter("serve.sched.steps");
        }
        Metrics.observe("serve.batch_size", static_cast<double>(Active.size()));
        return VegaSystem::ClaimedUnit{&G.Handle, *U};
      }
    if (Active.empty())
      break;
    // A generation admitted with no units is complete already: retire it.
    if (std::any_of(Active.begin(), Active.end(),
                    [](const ActiveGeneration &G) {
                      return G.Handle.complete();
                    }))
      continue;
    // Every active unit is claimed and some still run on other lanes: wait
    // for an arrival, or for the last of them to finish and end the
    // fan-out.
    Cv.wait(Lock);
  }
  // The first lane to leave ends the fan-out for every lane: a request
  // that arrives now waits for the loop's next fan-out, which starts at
  // once on all lanes, rather than running on the lanes that are left.
  FanOutOver = true;
  Cv.notify_all();
  return std::nullopt;
}

void Scheduler::admitLocked() {
  // Attach first: queued requests whose target started decoding since they
  // were submitted join that generation (window-exempt).
  for (auto It = Queue.begin(); It != Queue.end();) {
    ActiveGeneration *Owner = nullptr;
    for (ActiveGeneration &G : Active)
      if (G.Target == It->Target) {
        Owner = &G;
        break;
      }
    if (!Owner) {
      ++It;
      continue;
    }
    if (It->W.Ctx)
      obs::MetricsRegistry::instance().observe("serve.queue_ms",
                                               It->W.Ctx->elapsedMs());
    Owner->Waiters.push_back(std::move(It->W));
    Attached.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::instance().addCounter("serve.sched.attached");
    It = Queue.erase(It);
  }
  // Then open new generations while the window has room. This is where
  // mid-flight admission happens: every lane runs it before each claim, so
  // a request that arrived while units run starts on the next free lane.
  while (Active.size() < static_cast<size_t>(Options.Window) &&
         !Queue.empty()) {
    PendingAdmission P = std::move(Queue.front());
    Queue.pop_front();
    // A generation opened earlier in this very pass may now own the
    // target (two queued requests for one target): attach, don't open a
    // duplicate generation.
    ActiveGeneration *Owner = nullptr;
    for (ActiveGeneration &G : Active)
      if (G.Target == P.Target) {
        Owner = &G;
        break;
      }
    if (Owner) {
      if (P.W.Ctx)
        obs::MetricsRegistry::instance().observe("serve.queue_ms",
                                                 P.W.Ctx->elapsedMs());
      Owner->Waiters.push_back(std::move(P.W));
      Attached.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::instance().addCounter("serve.sched.attached");
      continue;
    }
    if (P.W.Ctx && P.W.Ctx->expired()) {
      Expired.fetch_add(1, std::memory_order_relaxed);
      failWaiter(std::move(P.W), Status::unavailable("deadline exceeded"));
      continue;
    }
    if (P.W.Ctx)
      obs::MetricsRegistry::instance().observe("serve.queue_ms",
                                               P.W.Ctx->elapsedMs());
    // The handle belongs to the request that opens it: every gen.* span of
    // this generation is attributed to it, including work done on behalf
    // of requests that attach later (first submitter wins under dedup).
    StatusOr<VegaSession::GenerationHandle> Handle = [&] {
      obs::RequestScope OpenerScope(P.W.Ctx.get());
      return Session.beginGenerate(P.Target);
    }();
    if (!Handle.isOk()) {
      failWaiter(std::move(P.W), Handle.status());
      continue;
    }
    ActiveGeneration G;
    G.Target = P.Target;
    G.Handle = std::move(Handle.value());
    G.Waiters.push_back(std::move(P.W));
    Active.push_back(std::move(G));
    Admitted.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::instance().addCounter("serve.sched.admitted");
    uint64_t Co = Active.size();
    uint64_t Prev = MaxCoActive.load(std::memory_order_relaxed);
    while (Prev < Co &&
           !MaxCoActive.compare_exchange_weak(Prev, Co,
                                              std::memory_order_relaxed)) {
    }
  }
  publishGauges();
}

void Scheduler::retireLocked() {
  // The fold is a cheap deterministic merge (every unit already ran), not
  // decode work.
  std::vector<CompletionItem> Done;
  for (auto It = Active.begin(); It != Active.end();) {
    if (!It->Handle.complete()) {
      ++It;
      continue;
    }
    CompletionItem Item;
    Item.Waiters = std::move(It->Waiters);
    StatusOr<GeneratedBackend> Backend = Session.finish(std::move(It->Handle));
    if (Backend.isOk())
      Item.Backend =
          std::make_shared<GeneratedBackend>(std::move(Backend.value()));
    else
      Item.Error = Backend.status();
    Done.push_back(std::move(Item));
    It = Active.erase(It);
    Retired.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::instance().addCounter("serve.sched.retired");
  }
  if (Done.empty())
    return;
  // Counted and published first: a waiter that has its answer sees them.
  publishGauges();
  for (CompletionItem &Item : Done)
    pushCompletion(std::move(Item));
}

void Scheduler::completionLoop() {
  while (true) {
    CompletionItem Item;
    {
      std::unique_lock<std::mutex> Lock(CompMu);
      CompCv.wait(Lock, [this] { return CompStop || !Completions.empty(); });
      if (Completions.empty())
        return; // stopping and fully drained
      Item = std::move(Completions.front());
      Completions.pop_front();
    }
    for (Waiter &W : Item.Waiters)
      if (W.Done)
        W.Done(Item.Backend.get(), Item.Backend ? Status::ok() : Item.Error);
  }
}

void Scheduler::failWaiter(Waiter W, Status St) {
  CompletionItem Item;
  Item.Waiters.push_back(std::move(W));
  Item.Error = std::move(St);
  pushCompletion(std::move(Item));
}

void Scheduler::pushCompletion(CompletionItem Item) {
  {
    std::lock_guard<std::mutex> Lock(CompMu);
    Completions.push_back(std::move(Item));
  }
  CompCv.notify_one();
}

void Scheduler::publishGauges() {
  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.setGauge("serve.queue_depth", static_cast<double>(Queue.size()));
  Metrics.setGauge("serve.active", static_cast<double>(Active.size()));
}
