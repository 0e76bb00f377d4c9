//===- serve/Scheduler.h - Continuous unit-level batching --------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of the vega-serve daemon: a continuous-batching scheduler
/// over one VegaSession. The old daemon queued whole requests
/// behind a single batch worker — a request that arrived one tick after a
/// batch started waited for the entire batch to finish. This scheduler
/// instead works at generation-unit granularity, and its lanes never wait
/// on one another:
///
///   * submit() parks a request on a bounded admission queue (a full queue
///     is a typed ResourceExhausted rejection — the backpressure signal
///     VegaServer answers with JSON-RPC -32005).
///   * Once there is work, the loop thread takes the engine lock and runs
///     one pull fan-out: every lane of the session's Stage-3 pool pulls
///     units one at a time until nothing is left to claim. Each pull, under
///     the scheduler's lock, honours pause() and shutdown, then ADMITS —
///     pending requests join the active set mid-flight, up to the admission
///     window; a request whose target is already generating attaches to
///     that generation instead of opening a second one (window-exempt —
///     attaching adds no decode work) — and then hands out the next
///     unclaimed unit of the OLDEST active generation that has one. Later
///     generations fill the lanes older ones cannot use, so a request that
///     arrives mid-flight starts on the next free lane.
///   * A generation RETIRES as soon as its last unit has run: the next
///     pull (normally the lane that ran that unit) folds it and hands its
///     waiters to a separate completion worker, which runs the submitters'
///     callbacks — no request waits for another request's units, and
///     response assembly never stalls a lane.
///   * A lane with nothing to claim waits while other lanes still run
///     units (an arrival may bring more); the fan-out ends when nothing is
///     claimable and nothing runs, and the loop sleeps until the next
///     submit.
///
/// Model work beside serving (the repair RPC) takes the engine lock through
/// lockEngine(): while such a caller waits, lanes claim nothing, so the
/// fan-out finishes its in-flight units and releases the lock even under
/// sustained load.
///
/// Determinism contract: a generation's bytes depend only on its target.
/// Units execute VegaSystem::assembleFunction() independently and merge in
/// template order, so a backend produced while co-batched with seven
/// neighbours is byte-identical to one produced solo by
/// VegaSession::generate(), which drives the same handle API. Only
/// complete handles retire. Admission order, window size, and which lane
/// ran which unit affect timing ONLY; timing is visible through spans and
/// metrics, never through payloads.
///
/// pause()/resume() stop and restart claims — test hooks for staging a
/// known queue composition (mid-flight admission, backpressure).
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_SERVE_SCHEDULER_H
#define VEGA_SERVE_SCHEDULER_H

#include "core/VegaSession.h"
#include "obs/Request.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace vega {
namespace serve {

struct SchedulerOptions {
  /// Most generations decoding concurrently (the admission window).
  /// Requests beyond the window wait on the admission queue; attaches to an
  /// in-flight target are exempt.
  int Window = 8;
  /// Most requests waiting for admission before submit() rejects with
  /// ResourceExhausted. 0 means unbounded.
  int MaxQueue = 64;
};

/// A live snapshot of the scheduler's counters and occupancy.
struct SchedulerStats {
  uint64_t Steps = 0;      ///< decode-loop iterations that ran units
  uint64_t Admitted = 0;   ///< generations opened
  uint64_t Attached = 0;   ///< requests deduped onto an in-flight generation
  uint64_t Retired = 0;    ///< generations completed and folded
  uint64_t Rejected = 0;   ///< submits bounced off the full queue
  uint64_t Expired = 0;    ///< requests whose deadline passed while queued
  uint64_t MaxCoActive = 0; ///< high-water co-active generations
  uint64_t Active = 0;     ///< generations decoding right now
  uint64_t QueueDepth = 0; ///< requests waiting for admission right now
};

/// The continuous-batching decode loop. One instance per served session;
/// the constructor starts the loop and completion threads, the destructor
/// fails whatever is still pending with Unavailable and joins both.
class Scheduler {
public:
  /// Invoked on the completion worker once the request's generation folds.
  /// Exactly one of the two is meaningful: on success \p Backend points at
  /// the folded backend (shared by every attached request; valid only for
  /// the duration of the call), on failure it is null and \p St carries the
  /// error.
  using Completion =
      std::function<void(const GeneratedBackend *Backend, const Status &St)>;

  Scheduler(VegaSession &Session, SchedulerOptions Options);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Queues \p Target for generation. \p Ctx is the submitting request's
  /// telemetry context (nullable); \p Done runs on the completion worker.
  /// Returns ResourceExhausted when the admission queue is full and
  /// Unavailable after shutdown began — in both cases \p Done is NOT
  /// invoked. The target must already be validated against the corpus.
  Status submit(const std::string &Target,
                std::shared_ptr<obs::RequestContext> Ctx, Completion Done);

  SchedulerStats stats() const;

  /// Freezes admission and claims. Units already running finish and their
  /// generations retire; nothing new starts until resume().
  void pause();
  void resume();

  /// Serializes heavy model work against the lanes: the session's pool and
  /// decode path are not concurrency-safe across threads. The loop holds
  /// this across each pull fan-out, which under sustained load may not
  /// end; lock it directly only while the scheduler is idle (a bench
  /// between load phases).
  std::mutex &engineMutex() { return EngineMu; }

  /// Takes the engine lock for model work beside serving (the repair
  /// RPC's completion). The caller registers as a waiter first: while one
  /// is registered lanes claim nothing, so the running fan-out finishes its
  /// in-flight units and releases the lock. Serving resumes once the
  /// returned lock is released.
  std::unique_lock<std::mutex> lockEngine();

private:
  struct Waiter {
    std::shared_ptr<obs::RequestContext> Ctx;
    Completion Done;
  };
  struct PendingAdmission {
    std::string Target;
    Waiter W;
  };
  /// One in-flight generation. Every access is under Mu except the lanes'
  /// use of Handle's units (claimed under Mu, run outside it); the node is
  /// erased only once every unit has run.
  struct ActiveGeneration {
    std::string Target;
    VegaSession::GenerationHandle Handle;
    std::vector<Waiter> Waiters;
  };
  /// One folded generation (or terminal failure) awaiting callbacks.
  struct CompletionItem {
    std::vector<Waiter> Waiters;
    std::shared_ptr<GeneratedBackend> Backend; ///< null => Error is terminal
    Status Error = Status::ok();
  };

  void loop();
  /// The unit source of a pull fan-out, called by every lane: retires
  /// complete generations, then — unless paused, stopping or an engine
  /// waiter is registered — admits and hands out the next unit of the
  /// oldest generation with one left. A lane with nothing to claim waits
  /// while units still run on other lanes; the first nullopt ends the
  /// fan-out for every lane.
  std::optional<VegaSystem::ClaimedUnit> pull();
  /// Admits from the queue under Mu: attach-dedup first (window-exempt),
  /// then open generations while the window has room.
  void admitLocked();
  /// Folds complete generations off the active set onto the completion
  /// queue, under Mu so submit() never attaches to one mid-retire.
  void retireLocked();
  void completionLoop();
  /// Routes \p W to the completion worker with a terminal \p St.
  void failWaiter(Waiter W, Status St);
  void pushCompletion(CompletionItem Item);
  void publishGauges();

  VegaSession &Session;
  SchedulerOptions Options;

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::deque<PendingAdmission> Queue; ///< guarded by Mu
  std::list<ActiveGeneration> Active; ///< guarded by Mu; oldest first
  bool Paused = false;                ///< guarded by Mu
  bool Stop = false;                  ///< guarded by Mu
  /// The running fan-out has claimed a unit (counted in Steps); guarded by
  /// Mu.
  bool FanOutCounted = false;
  /// A lane has left the running fan-out, so every lane leaves; guarded by
  /// Mu.
  bool FanOutOver = false;

  std::mutex EngineMu;
  /// Callers blocked in lockEngine(); lanes claim nothing while non-zero.
  std::atomic<int> EngineWaiters{0};

  std::mutex CompMu;
  std::condition_variable CompCv;
  std::deque<CompletionItem> Completions; ///< guarded by CompMu
  bool CompStop = false;                  ///< guarded by CompMu

  std::atomic<uint64_t> Steps{0};
  std::atomic<uint64_t> Admitted{0};
  std::atomic<uint64_t> Attached{0};
  std::atomic<uint64_t> Retired{0};
  std::atomic<uint64_t> Rejected{0};
  std::atomic<uint64_t> Expired{0};
  std::atomic<uint64_t> MaxCoActive{0};

  std::thread LoopThread;
  std::thread CompletionThread;
};

} // namespace serve
} // namespace vega

#endif // VEGA_SERVE_SCHEDULER_H
