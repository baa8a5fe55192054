//===- parallel/ThreadPool.cpp - Work-stealing worker pool ----------------===//

#include "parallel/ThreadPool.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace hac;
using namespace hac::par;

namespace {

/// One worker's deque. The owner pops from the back, thieves pop from the
/// front; both sides take the mutex — tasks here are loop *chunks*, so
/// queue traffic is a handful of operations per parallelFor, not per
/// iteration, and an uncontended mutex is cheaper than getting a lock-free
/// deque wrong.
struct WorkerQueue {
  std::mutex M;
  std::deque<size_t> Q;
};

/// One worker's utilization counters. All relaxed: each counter is an
/// independent monotonic tally, and readers (stats()) only need eventual
/// per-counter values, not cross-counter ordering. Cache-line padded so
/// workers never bounce each other's counters.
struct alignas(64) WStats {
  std::atomic<uint64_t> Tasks{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> IdleNanos{0};
};

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The calling thread's lane within its pool (0 outside a pool).
thread_local unsigned CurWorker = 0;

} // namespace

struct ThreadPool::Impl {
  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;
  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::unique_ptr<WStats>> Stats;
  std::atomic<uint64_t> Jobs{0};
  std::atomic<uint64_t> MaxQueueDepth{0};

  std::mutex JobM;
  std::condition_variable JobCV;  // workers wait here between jobs
  std::condition_variable DoneCV; // parallelFor waits here for the barrier
  const std::function<void(size_t)> *JobFn = nullptr;
  std::atomic<size_t> Remaining{0};
  uint64_t JobGen = 0;
  unsigned Active = 0; // workers inside drain(); guarded by JobM
  bool Shutdown = false;

  // The detached background lane: one dedicated thread, FIFO queue,
  // created lazily by the first submit() so pools that never compile
  // anything pay nothing.
  mutable std::mutex BgM;
  std::condition_variable BgCV;     // the background thread waits here
  std::condition_variable BgIdleCV; // waitBackground() waits here
  std::deque<std::function<void()>> BgQueue;
  std::thread BgThread;
  size_t BgPending = 0; // queued + running
  bool BgShutdown = false;

  void backgroundLoop() {
    for (;;) {
      std::function<void()> Fn;
      {
        std::unique_lock<std::mutex> Lock(BgM);
        BgCV.wait(Lock, [&] { return BgShutdown || !BgQueue.empty(); });
        if (BgQueue.empty())
          return; // shutdown with a drained queue
        Fn = std::move(BgQueue.front());
        BgQueue.pop_front();
      }
      Fn();
      {
        std::lock_guard<std::mutex> Lock(BgM);
        --BgPending;
        if (BgPending == 0)
          BgIdleCV.notify_all();
      }
    }
  }

  /// Pops one task for worker \p Self: own deque from the back first,
  /// then steal from the other deques' fronts. Returns false when no
  /// task is available anywhere.
  bool popTask(unsigned Self, size_t &Task) {
    {
      WorkerQueue &Own = *Queues[Self];
      std::lock_guard<std::mutex> Lock(Own.M);
      if (!Own.Q.empty()) {
        Task = Own.Q.back();
        Own.Q.pop_back();
        return true;
      }
    }
    for (unsigned I = 1; I != NumThreads; ++I) {
      WorkerQueue &Victim = *Queues[(Self + I) % NumThreads];
      std::lock_guard<std::mutex> Lock(Victim.M);
      if (!Victim.Q.empty()) {
        Task = Victim.Q.front();
        Victim.Q.pop_front();
        Stats[Self]->Steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Drains every available task for worker \p Self, decrementing the
  /// barrier count and waking the caller when the last task finishes.
  void drain(unsigned Self, const std::function<void(size_t)> &Fn) {
    size_t Task;
    while (popTask(Self, Task)) {
      Fn(Task);
      Stats[Self]->Tasks.fetch_add(1, std::memory_order_relaxed);
      if (Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> Lock(JobM);
        DoneCV.notify_all();
      }
    }
  }

  void workerLoop(unsigned Self) {
    CurWorker = Self;
    uint64_t SeenGen = 0;
    for (;;) {
      const std::function<void(size_t)> *Fn = nullptr;
      {
        uint64_t T0 = nowNanos();
        std::unique_lock<std::mutex> Lock(JobM);
        JobCV.wait(Lock,
                   [&] { return Shutdown || JobGen != SeenGen; });
        Stats[Self]->IdleNanos.fetch_add(nowNanos() - T0,
                                         std::memory_order_relaxed);
        if (Shutdown)
          return;
        SeenGen = JobGen;
        Fn = JobFn;
        // Woke after the caller retired this generation: the next
        // job's tasks may already sit in the deques, but not its Fn.
        if (!Fn)
          continue;
        ++Active;
      }
      drain(Self, *Fn);
      std::lock_guard<std::mutex> Lock(JobM);
      if (--Active == 0)
        DoneCV.notify_all();
    }
  }
};

ThreadPool::ThreadPool(unsigned Threads) : P(std::make_unique<Impl>()) {
  if (Threads == 0)
    Threads = defaultThreads();
  P->NumThreads = Threads;
  P->Queues.reserve(Threads);
  P->Stats.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I) {
    P->Queues.push_back(std::make_unique<WorkerQueue>());
    P->Stats.push_back(std::make_unique<WStats>());
  }
  // Worker 0 is the calling thread.
  for (unsigned I = 1; I != Threads; ++I)
    P->Workers.emplace_back([this, I] { P->workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(P->JobM);
    P->Shutdown = true;
    P->JobCV.notify_all();
  }
  for (std::thread &T : P->Workers)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(P->BgM);
    P->BgShutdown = true;
    P->BgCV.notify_all();
  }
  if (P->BgThread.joinable())
    P->BgThread.join();
}

void ThreadPool::submit(std::function<void()> Fn) {
  std::lock_guard<std::mutex> Lock(P->BgM);
  if (!P->BgThread.joinable())
    P->BgThread = std::thread([this] { P->backgroundLoop(); });
  P->BgQueue.push_back(std::move(Fn));
  ++P->BgPending;
  P->BgCV.notify_one();
}

void ThreadPool::waitBackground() {
  std::unique_lock<std::mutex> Lock(P->BgM);
  P->BgIdleCV.wait(Lock, [&] { return P->BgPending == 0; });
}

size_t ThreadPool::pendingBackground() const {
  std::lock_guard<std::mutex> Lock(P->BgM);
  return P->BgPending;
}

unsigned ThreadPool::threads() const { return P->NumThreads; }

void ThreadPool::parallelFor(size_t NumTasks,
                             const std::function<void(size_t)> &Fn) {
  if (NumTasks == 0)
    return;
  P->Jobs.fetch_add(1, std::memory_order_relaxed);
  if (P->NumThreads == 1 || NumTasks == 1) {
    for (size_t T = 0; T != NumTasks; ++T)
      Fn(T);
    P->Stats[0]->Tasks.fetch_add(NumTasks, std::memory_order_relaxed);
    return;
  }
  // Round-robin the tasks over the deques, then publish the job.
  for (size_t T = 0; T != NumTasks; ++T) {
    WorkerQueue &Q = *P->Queues[T % P->NumThreads];
    std::lock_guard<std::mutex> Lock(Q.M);
    Q.Q.push_back(T);
    uint64_t Depth = Q.Q.size();
    uint64_t Prev = P->MaxQueueDepth.load(std::memory_order_relaxed);
    while (Prev < Depth && !P->MaxQueueDepth.compare_exchange_weak(
                               Prev, Depth, std::memory_order_relaxed))
      ;
  }
  {
    std::lock_guard<std::mutex> Lock(P->JobM);
    P->JobFn = &Fn;
    P->Remaining.store(NumTasks, std::memory_order_relaxed);
    ++P->JobGen;
    P->JobCV.notify_all();
  }
  // The caller works too, then waits out the barrier: every task done
  // and every worker out of drain(), so none can pop the next job's
  // tasks while still holding this job's Fn.
  P->drain(0, Fn);
  uint64_t T0 = nowNanos();
  std::unique_lock<std::mutex> Lock(P->JobM);
  P->DoneCV.wait(Lock, [&] {
    return P->Remaining.load(std::memory_order_acquire) == 0 &&
           P->Active == 0;
  });
  P->Stats[0]->IdleNanos.fetch_add(nowNanos() - T0,
                                   std::memory_order_relaxed);
  P->JobFn = nullptr;
}

PoolStats ThreadPool::stats() const {
  PoolStats S;
  S.Jobs = P->Jobs.load(std::memory_order_relaxed);
  S.MaxQueueDepth = P->MaxQueueDepth.load(std::memory_order_relaxed);
  S.Workers.reserve(P->NumThreads);
  for (const auto &W : P->Stats) {
    WorkerStats WS;
    WS.Tasks = W->Tasks.load(std::memory_order_relaxed);
    WS.Steals = W->Steals.load(std::memory_order_relaxed);
    WS.IdleNanos = W->IdleNanos.load(std::memory_order_relaxed);
    S.Tasks += WS.Tasks;
    S.Steals += WS.Steals;
    S.Workers.push_back(WS);
  }
  return S;
}

void ThreadPool::resetStats() {
  P->Jobs.store(0, std::memory_order_relaxed);
  P->MaxQueueDepth.store(0, std::memory_order_relaxed);
  for (const auto &W : P->Stats) {
    W->Tasks.store(0, std::memory_order_relaxed);
    W->Steals.store(0, std::memory_order_relaxed);
    W->IdleNanos.store(0, std::memory_order_relaxed);
  }
}

unsigned ThreadPool::currentWorker() { return CurWorker; }

unsigned ThreadPool::defaultThreads() {
  if (const char *Env = std::getenv("HAC_THREADS"); Env && *Env) {
    char *End = nullptr;
    errno = 0;
    long N = std::strtol(Env, &End, 10);
    if (errno != 0 || End == Env || *End != '\0') {
      // Garbage is refused, not silently treated as 0 threads.
      std::fprintf(stderr,
                   "hac: warning: HAC_THREADS='%s' is not an integer; "
                   "using hardware concurrency\n",
                   Env);
    } else if (N < 1) {
      std::fprintf(stderr,
                   "hac: warning: HAC_THREADS=%ld clamped to 1\n", N);
      return 1;
    } else if (N > 4096) {
      std::fprintf(stderr,
                   "hac: warning: HAC_THREADS=%ld clamped to 4096\n", N);
      return 4096;
    } else {
      return static_cast<unsigned>(N);
    }
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 1;
}
