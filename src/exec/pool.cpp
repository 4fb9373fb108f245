#include "exec/pool.hpp"

#include <algorithm>

namespace uncharted::exec {

namespace {

/// Set while a Pool worker (or a helper inside try_help) is on the call
/// stack; submit() from such a thread must never block on the bound.
thread_local int tls_worker_depth = 0;

}  // namespace

unsigned Pool::default_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::unique_ptr<Pool> Pool::for_threads(unsigned threads) {
  if (threads == 0) threads = default_threads();
  return threads > 1 ? std::make_unique<Pool>(threads) : nullptr;
}

Pool::Pool(unsigned threads, std::size_t queue_bound)
    : queue_bound_(std::max<std::size_t>(1, queue_bound)) {
  unsigned count = threads > 0 ? threads : default_threads();
  queues_.reserve(count);
  for (unsigned i = 0; i < count; ++i) queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool Pool::on_worker_thread() { return tls_worker_depth > 0; }

void Pool::submit(std::function<void()> task) {
  std::size_t target;
  {
    std::unique_lock<std::mutex> lk(wake_m_);
    if (!on_worker_thread()) {
      space_cv_.wait(lk, [&] { return pending_ < queue_bound_ || stop_; });
    }
    ++pending_;
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> qlk(queues_[target]->m);
    queues_[target]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool Pool::pop_or_steal(std::size_t home, std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Queue& q = *queues_[(home + i) % n];
    std::lock_guard<std::mutex> qlk(q.m);
    if (q.tasks.empty()) continue;
    if (i == 0) {
      // Own queue: LIFO for locality.
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
    } else {
      // Steal from the front — the oldest task, classic work stealing.
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    return true;
  }
  return false;
}

bool Pool::try_help() {
  std::function<void()> task;
  if (!pop_or_steal(0, task)) return false;
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    --pending_;
  }
  space_cv_.notify_one();
  ++tls_worker_depth;
  try {
    task();
  } catch (...) {
    --tls_worker_depth;
    throw;  // TaskGroup wrappers catch; a bare submit() task must not throw
  }
  --tls_worker_depth;
  return true;
}

void Pool::worker_loop(std::size_t index) {
  ++tls_worker_depth;
  for (;;) {
    std::function<void()> task;
    if (pop_or_steal(index, task)) {
      {
        std::lock_guard<std::mutex> lk(wake_m_);
        --pending_;
      }
      space_cv_.notify_one();
      task();
      continue;
    }
    std::unique_lock<std::mutex> lk(wake_m_);
    if (stop_) break;
    wake_cv_.wait(lk, [&] { return pending_ > 0 || stop_; });
    if (stop_) break;
  }
  --tls_worker_depth;
}

TaskGroup::~TaskGroup() {
  // A group abandoned with tasks in flight would leave them writing into
  // freed state; waiting here is the least-bad failure mode. Exceptions
  // stay captured (destructors must not throw).
  std::unique_lock<std::mutex> lk(m_);
  while (outstanding_ > 0) {
    if (pool_) {
      lk.unlock();
      if (!pool_->try_help()) std::this_thread::yield();
      lk.lock();
    } else {
      cv_.wait(lk, [&] { return outstanding_ == 0; });
    }
  }
}

void TaskGroup::finish_one(std::exception_ptr error) {
  std::lock_guard<std::mutex> lk(m_);
  if (error && !first_error_) first_error_ = error;
  --outstanding_;
  if (outstanding_ == 0) cv_.notify_all();
}

void TaskGroup::run(std::function<void()> task) {
  if (!pool_) {
    task();  // inline: exceptions propagate directly, like plain code
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    ++outstanding_;
  }
  pool_->submit([this, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    finish_one(error);
  });
}

void TaskGroup::wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (outstanding_ == 0) break;
    }
    // Help: run pool tasks instead of sleeping, so nested fan-out from
    // inside a task can never starve itself of workers.
    if (pool_ && pool_->try_help()) continue;
    std::unique_lock<std::mutex> lk(m_);
    if (outstanding_ == 0) break;
    cv_.wait_for(lk, std::chrono::milliseconds(1),
                 [&] { return outstanding_ == 0; });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(m_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(Pool* pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  if (!pool || n <= grain) {
    for (std::size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(n, begin + grain));
    }
    return;
  }
  TaskGroup group(pool);
  for (std::size_t begin = 0; begin < n; begin += grain) {
    std::size_t end = std::min(n, begin + grain);
    group.run([&body, begin, end] { body(begin, end); });
  }
  group.wait();
}

}  // namespace uncharted::exec
