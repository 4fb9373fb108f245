// Work-stealing thread pool for the flow-sharded analysis pipeline.
//
// Design constraints, in order:
//   1. Determinism stays upstream: the pool never decides *what* work
//      produces — callers partition work so that results are independent
//      of execution order (flow-affine shards, fixed-grain reductions).
//      The pool only decides *where* and *when* chunks run.
//   2. No deadlock under nesting: TaskGroup::wait() helps — a thread
//      blocked on a group executes pending pool tasks instead of
//      sleeping, so a task may itself fan out through the same pool.
//   3. Exceptions propagate: the first exception thrown by any task in a
//      group is captured and rethrown from wait() on the waiting thread.
//   4. Bounded: external submitters block once the backlog exceeds the
//      queue bound (backpressure); worker threads never block on submit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace uncharted::exec {

class Pool {
 public:
  /// `threads` worker threads; 0 means default_threads(). A pool with one
  /// worker is still a real pool (tasks run off the calling thread).
  explicit Pool(unsigned threads = 0, std::size_t queue_bound = 16384);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// max(1, hardware_concurrency) — the `--threads 0` resolution.
  static unsigned default_threads();

  /// The pool a `--threads` value asks for: null when it resolves to one
  /// thread (the work then runs on the caller's thread), else a pool of
  /// that many workers. 0 means default_threads().
  static std::unique_ptr<Pool> for_threads(unsigned threads);

  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task. Blocks (external threads only) while the backlog is
  /// at the bound; worker threads enqueue without blocking so helping and
  /// nested fan-out can never self-deadlock.
  void submit(std::function<void()> task);

  /// Runs one pending task on the calling thread, if any. Used by
  /// TaskGroup::wait() to help instead of sleeping. Returns false when no
  /// task was available.
  bool try_help();

 private:
  struct Queue {
    std::mutex m;
    std::deque<std::function<void()>> tasks;
  };

  bool pop_or_steal(std::size_t home, std::function<void()>& out);
  void worker_loop(std::size_t index);
  static bool on_worker_thread();

  std::vector<std::unique_ptr<Queue>> queues_;  ///< one per worker
  std::vector<std::thread> workers_;
  std::mutex wake_m_;
  std::condition_variable wake_cv_;    ///< workers sleep here
  std::condition_variable space_cv_;   ///< external submitters block here
  std::size_t pending_ = 0;            ///< tasks enqueued, not yet started
  std::size_t queue_bound_;
  std::size_t next_queue_ = 0;         ///< round-robin submit target
  bool stop_ = false;
};

/// A joinable set of tasks with exception propagation. `run` submits to
/// the pool (or executes inline when constructed with no pool — the
/// sequential code path is the same code). `wait` blocks until every task
/// finished, helping the pool meanwhile, then rethrows the first captured
/// exception.
class TaskGroup {
 public:
  explicit TaskGroup(Pool* pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> task);
  void wait();

 private:
  void finish_one(std::exception_ptr error);

  Pool* pool_;
  std::mutex m_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::exception_ptr first_error_;
};

/// Splits [0, n) into chunks of exactly `grain` (last one shorter) and
/// runs `body(begin, end)` over each — on the pool when one is given, or
/// inline in chunk order otherwise. Chunk boundaries depend only on `n`
/// and `grain`, never on the worker count, so a body that accumulates
/// per-chunk partials combined in chunk order yields bit-identical results
/// at every thread count, including 1.
void parallel_for(Pool* pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace uncharted::exec
