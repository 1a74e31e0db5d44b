#include "runtime/thread_pool.h"

#include "runtime/parallel_for.h"
#include "testing/fault_injector.h"

namespace qcore {

ThreadPool::ThreadPool(const ThreadPoolOptions& options)
    : aging_us_(options.aging_us) {
  QCORE_CHECK(options.num_threads >= 0);
  workers_.reserve(static_cast<size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> task, TaskPriority priority) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(mu_);
    // Scheduling during shutdown is allowed: workers only exit once both
    // queues are empty, so tasks enqueued by in-flight tasks still drain
    // before the destructor's join returns.
    if (priority == TaskPriority::kHigh) {
      high_.push_back(std::move(task));
    } else {
      low_.push_back(LowTask{std::move(task), Clock::now()});
    }
  }
  work_available_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  if (workers_.empty()) return;
  MutexLock lock(mu_);
  idle_.Wait(mu_, [this]() {
    mu_.AssertHeld();
    return !HasWork() && active_ == 0;
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      work_available_.Wait(mu_, [this]() {
        mu_.AssertHeld();
        return shutdown_ || HasWork();
      });
      if (!HasWork()) return;  // shutdown with drained queues
      // Dispatch policy: high first, except when the low queue's head has
      // aged past the threshold — then it goes ahead (the anti-starvation
      // promotion). FIFO within each queue means checking only the head is
      // enough: it is always the oldest low task.
      bool take_low = high_.empty();
      if (!take_low && aging_us_ > 0 && !low_.empty()) {
        const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - low_.front().enqueued);
        if (static_cast<uint64_t>(waited.count()) >= aging_us_) {
          take_low = true;
          aged_promotions_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (take_low) {
        task = std::move(low_.front().fn);
        low_.pop_front();
      } else {
        task = std::move(high_.front());
        high_.pop_front();
      }
      ++active_;
    }
    uint64_t stall_us = 0;
    if (MaybeFault(FaultPoint::kPoolSaturation, &stall_us)) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
    {
      BusyThreadScope busy;  // this CPU is taken (FreeParallelThreads)
      task();
    }
    {
      MutexLock lock(mu_);
      --active_;
      if (!HasWork() && active_ == 0) idle_.NotifyAll();
    }
  }
}

}  // namespace qcore
