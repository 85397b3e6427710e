// Copyright 2026 The SemTree Authors

#include "common/thread_pool.h"

#include <memory>

namespace semtree {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  // Constructor: no other thread can hold mu_ yet, but the workers
  // spawned below immediately lock it, so reserve/emplace stay inside
  // the critical section for the analysis' sake.
  MutexLock lock(mu_);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  // Swap the workers out under the lock, join outside it (a worker
  // needs mu_ to observe shutdown_ and exit). Concurrent Shutdown
  // calls each reap a disjoint (possibly empty) set — the second
  // caller finds an empty vector instead of joining threads the first
  // is still joining.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  cv_.NotifyAll();
  // Workers drain the queue before exiting (see WorkerLoop), so every
  // task submitted before Shutdown still runs to completion.
  for (auto& worker : workers) worker.join();
}

size_t ThreadPool::num_threads() const {
  MutexLock lock(mu_);
  return workers_.size();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return true;
}

bool ThreadPool::TryRunOne() {
  std::function<void()> task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
  }
  task();
  {
    MutexLock lock(mu_);
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
  }
  return true;
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // Shutdown and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
    }
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr) {
    fn();
    return;
  }
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  // Shared ownership so the task survives whichever path runs it: the
  // enqueued wrapper, or the inline fallback when the pool refused it.
  auto task = std::make_shared<std::function<void()>>(std::move(fn));
  // The wrapper decrements and notifies under the group mutex, so a
  // Wait that saw pending_ > 0 is guaranteed a wake-up for this
  // completion. Notifying after the unlock would race with the group's
  // destruction: Wait may return, and the group go out of scope, as
  // soon as the last decrement is visible.
  bool queued = pool_->TrySubmit([this, task]() {
    (*task)();
    MutexLock lock(mu_);
    --pending_;
    ++completions_;
    cv_.NotifyAll();
  });
  if (!queued) {
    // Pool shut down: run inline rather than leaving the group waiting
    // on a task that will never execute.
    {
      MutexLock lock(mu_);
      --pending_;
    }
    (*task)();
  }
}

void TaskGroup::Wait() {
  for (;;) {
    // Drain whatever is queued on the calling thread first. This is
    // what makes recursive fan-out safe on a saturated pool: the
    // waiter is itself a worker.
    if (pool_ != nullptr) {
      while (pool_->TryRunOne()) {
      }
    }
    MutexLock lock(mu_);
    if (pending_ == 0) return;
    // Sleep until either the group drains or *any* task completes —
    // a completing task may have enqueued subtasks worth stealing.
    const uint64_t seen = completions_;
    while (pending_ != 0 && completions_ == seen) cv_.Wait(mu_);
    if (pending_ == 0) return;
  }
}

}  // namespace semtree
