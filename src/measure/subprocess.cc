#include "measure/subprocess.h"

#include <csignal>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/error.h"
#include "core/telemetry.h"
#include "measure/wire.h"
#include "tuner/checkpoint.h"

extern char** environ;

namespace ceal::measure {

namespace {

using steady_clock = std::chrono::steady_clock;

double seconds_between(steady_clock::time_point from,
                       steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Writing a run frame to a worker that just died must surface as a
/// write error (handled as a worker fault), not kill the dispatcher.
void ignore_sigpipe_once() {
  static const bool done = [] {
    struct sigaction current{};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      current.sa_handler = SIG_IGN;
      ::sigaction(SIGPIPE, &current, nullptr);
    }
    return true;
  }();
  (void)done;
}

bool write_all(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::string default_worker_bin() {
  char buffer[4096];
  const ::ssize_t n =
      ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "ceal_worker";
  buffer[n] = '\0';
  const std::string self(buffer);
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "ceal_worker";
  return self.substr(0, slash + 1) + "ceal_worker";
}

struct SubprocessBackend::Event {
  std::size_t slot = 0;
  std::uint64_t generation = 0;
  bool closed = false;   ///< EOF, read error, or corrupt frame
  std::string error;     ///< why (empty for a clean EOF)
  json::Value payload;   ///< valid when !closed
};

struct SubprocessBackend::Worker {
  Worker(const BackoffPolicy& policy, std::uint64_t seed)
      : backoff(policy, seed) {}

  std::uint64_t generation = 0;  ///< bumped per reap; stale events ignored
  ::pid_t pid = -1;
  int in_fd = -1;   ///< dispatcher -> worker stdin
  int out_fd = -1;  ///< worker stdout -> dispatcher
  std::thread reader;
  FrameWriter writer;
  bool alive = false;
  bool retired = false;  ///< restart schedule exhausted; slot is dead
  bool hello_ok = false;
  bool busy = false;
  std::uint64_t req_id = 0;
  std::uint64_t req_tag = 0;
  std::size_t req_index = 0;
  bool req_hedge = false;
  steady_clock::time_point started_at{};
  steady_clock::time_point dispatched_at{};
  Backoff backoff;
};

SubprocessBackend::SubprocessBackend(const tuner::MeasuredPool& pool,
                                     SubprocessOptions options,
                                     telemetry::Telemetry* telemetry)
    : pool_(&pool), options_(std::move(options)), telemetry_(telemetry) {
  if (options_.workers == 0) options_.workers = 1;
  worker_bin_ = options_.worker_bin.empty() ? default_worker_bin()
                                            : options_.worker_bin;
}

SubprocessBackend::~SubprocessBackend() {
  for (auto& worker : workers_) {
    if (worker == nullptr) continue;
    if (worker->alive && worker->in_fd >= 0) {
      // Best-effort polite goodbye; the reap below is the guarantee.
      write_all(worker->in_fd, worker->writer.frame(shutdown_message()));
    }
    reap_worker(*worker);
  }
}

std::size_t SubprocessBackend::live_workers() const {
  std::size_t live = 0;
  for (const auto& worker : workers_) {
    if (worker != nullptr && !worker->retired) ++live;
  }
  return live;
}

void SubprocessBackend::ensure_started() {
  if (started_) return;
  started_ = true;
  ignore_sigpipe_once();
  workers_.reserve(options_.workers);
  for (std::size_t slot = 0; slot < options_.workers; ++slot) {
    workers_.push_back(std::make_unique<Worker>(
        options_.restart_backoff, options_.seed ^ (0x5EED0000ULL + slot)));
  }
  for (std::size_t slot = 0; slot < workers_.size() && !degraded_; ++slot) {
    if (spawn_worker(slot)) continue;
    // A slot that cannot even spawn runs the same fault path as a
    // crashed worker: backoff retries, retirement, degradation.
    ++consecutive_failures_;
    if (telemetry_ != nullptr) telemetry_->count("measure.worker_fault");
    if (consecutive_failures_ >= options_.degrade_after) {
      degrade("worker spawn failed " +
              std::to_string(consecutive_failures_) + " time(s): " +
              worker_bin_);
      return;
    }
    worker_fault(slot, "spawn failed");
  }
}

bool SubprocessBackend::spawn_worker(std::size_t slot) {
  Worker& worker = *workers_[slot];
  int in_pipe[2] = {-1, -1};   // dispatcher writes [1], worker stdin [0]
  int out_pipe[2] = {-1, -1};  // worker stdout [1], dispatcher reads [0]
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) return false;
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }

  std::vector<std::string> args;
  args.push_back(worker_bin_);
  for (const std::string& arg : options_.worker_args) args.push_back(arg);
  args.push_back("--index");
  args.push_back(std::to_string(slot));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  ::posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  ::posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  ::pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, worker_bin_.c_str(), &actions, nullptr,
                               argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (rc != 0) {
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    return false;
  }

  worker.pid = pid;
  worker.in_fd = in_pipe[1];
  worker.out_fd = out_pipe[0];
  worker.alive = true;
  worker.hello_ok = false;
  worker.busy = false;
  worker.writer = FrameWriter{};
  worker.started_at = steady_clock::now();
  const std::size_t event_slot = slot;
  const std::uint64_t generation = worker.generation;
  const int fd = worker.out_fd;
  worker.reader = std::thread([this, event_slot, generation, fd] {
    FrameReader frames("worker " + std::to_string(event_slot) + " stdout");
    const auto push = [this](Event event) {
      {
        std::lock_guard lock(events_mutex_);
        events_.push_back(std::move(event));
      }
      events_cv_.notify_all();
    };
    char buffer[4096];
    for (;;) {
      const ::ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n < 0) {
        if (errno == EINTR) continue;
        push(Event{event_slot, generation, true,
                   std::string("read failed: ") + std::strerror(errno), {}});
        return;
      }
      if (n == 0) {
        push(Event{event_slot, generation, true, "", {}});
        return;
      }
      frames.feed(buffer, static_cast<std::size_t>(n));
      try {
        while (std::optional<json::Value> payload = frames.next()) {
          push(Event{event_slot, generation, false, "",
                     std::move(*payload)});
        }
      } catch (const std::exception& e) {
        // A corrupt frame poisons the connection; everything after the
        // first bad byte is untrusted.
        push(Event{event_slot, generation, true, e.what(), {}});
        return;
      }
    }
  });
  return true;
}

void SubprocessBackend::reap_worker(Worker& worker) {
  if (worker.in_fd >= 0) {
    ::close(worker.in_fd);
    worker.in_fd = -1;
  }
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker.pid = -1;
  }
  if (worker.reader.joinable()) worker.reader.join();
  if (worker.out_fd >= 0) {
    ::close(worker.out_fd);
    worker.out_fd = -1;
  }
  worker.alive = false;
  worker.hello_ok = false;
  worker.busy = false;
  ++worker.generation;
}

void SubprocessBackend::open_request(std::size_t index, bool front) {
  open_[index] = next_tag_++;
  if (front) {
    enqueue_front(index);
  } else {
    pending_.push_back(index);
    queued_.insert(index);
  }
}

void SubprocessBackend::enqueue_front(std::size_t index) {
  pending_.push_front(index);
  queued_.insert(index);
}

bool SubprocessBackend::unserved(std::size_t index, std::uint64_t tag) const {
  const auto open = open_.find(index);
  return open != open_.end() && open->second == tag &&
         completed_.find(index) == completed_.end();
}

int SubprocessBackend::release(std::uint64_t tag) {
  auto it = outstanding_.find(tag);
  if (it == outstanding_.end()) return 0;
  if (--it->second > 0) return it->second;
  outstanding_.erase(it);
  return 0;
}

void SubprocessBackend::worker_fault(std::size_t slot,
                                     const std::string& why) {
  Worker& worker = *workers_[slot];
  if (worker.retired) return;
  if (worker.alive) {
    if (worker.busy) {
      // Re-queue the in-flight run unless a hedge twin still carries it
      // or its request was already served.
      const std::size_t index = worker.req_index;
      worker.busy = false;
      if (release(worker.req_tag) == 0 && unserved(index, worker.req_tag) &&
          queued_.find(index) == queued_.end()) {
        enqueue_front(index);
        ++stats_.retries;
        if (telemetry_ != nullptr) telemetry_->count("measure.retry");
      }
    }
    reap_worker(worker);
    ++consecutive_failures_;
    if (telemetry_ != nullptr) {
      telemetry_->count("measure.worker_fault");
      telemetry::TraceEvent event("measure.worker_fault");
      event.field("worker", slot).field("why", why.c_str());
      telemetry_->emit(std::move(event));
    }
    if (consecutive_failures_ >= options_.degrade_after) {
      degrade(std::to_string(consecutive_failures_) +
              " consecutive worker-pool failures (last: worker " +
              std::to_string(slot) + ": " + why + ")");
      return;
    }
  }
  // Revive the slot: backoff-delayed respawn attempts until one sticks,
  // the schedule is exhausted (retire), or the pool degrades.
  while (!degraded_) {
    if (worker.backoff.exhausted()) {
      worker.retired = true;
      ++stats_.retired;
      if (telemetry_ != nullptr) telemetry_->count("measure.worker_retired");
      if (live_workers() == 0) degrade("every worker slot retired");
      return;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(worker.backoff.next_delay_s()));
    if (spawn_worker(slot)) {
      ++stats_.restarts;
      if (telemetry_ != nullptr) telemetry_->count("measure.worker_restart");
      return;
    }
    ++consecutive_failures_;
    if (telemetry_ != nullptr) telemetry_->count("measure.worker_fault");
    if (consecutive_failures_ >= options_.degrade_after) {
      degrade("worker spawn failed " +
              std::to_string(consecutive_failures_) + " time(s): " +
              worker_bin_);
      return;
    }
  }
}

void SubprocessBackend::degrade(const std::string& reason) {
  if (degraded_) return;
  degraded_ = true;
  stats_.degraded = true;
  for (auto& worker : workers_) {
    if (worker != nullptr) reap_worker(*worker);
  }
  pending_.clear();
  queued_.clear();
  outstanding_.clear();
  if (telemetry_ != nullptr) {
    telemetry_->count("measure.degraded");
    telemetry::TraceEvent event("measure.degraded");
    event.field("reason", reason.c_str())
        .field("completed_remote", stats_.completed)
        .field("restarts", stats_.restarts);
    telemetry_->emit(std::move(event));
  }
}

void SubprocessBackend::dispatch(std::size_t slot, std::size_t index,
                                 bool hedge) {
  Worker& worker = *workers_[slot];
  const std::uint64_t id = next_request_id_++;
  worker.busy = true;
  worker.req_id = id;
  worker.req_tag = open_.at(index);
  worker.req_index = index;
  worker.req_hedge = hedge;
  worker.dispatched_at = steady_clock::now();
  ++outstanding_[worker.req_tag];
  ++stats_.dispatched;
  if (telemetry_ != nullptr) telemetry_->count("measure.dispatch");
  if (!write_all(worker.in_fd, worker.writer.frame(run_message(id, index)))) {
    worker_fault(slot, "write to worker stdin failed");
  }
}

void SubprocessBackend::handle_message(std::size_t slot,
                                       const json::Value& payload) {
  Worker& worker = *workers_[slot];
  const std::string& op = message_op(payload);
  if (op == "hello") {
    const HelloMsg hello = parse_hello(payload);
    if (hello.worker != slot) {
      throw WireError("hello from worker " + std::to_string(hello.worker) +
                      " on slot " + std::to_string(slot));
    }
    if (hello.pool_n != pool_->size() ||
        hello.pool_fp != tuner::pool_fingerprint(*pool_)) {
      throw WireError(
          "worker rebuilt a different pool (fingerprint mismatch — "
          "version or seed skew)");
    }
    worker.hello_ok = true;
    return;
  }
  if (op == "pong") {
    (void)parse_ping_id(payload);
    return;
  }
  if (op != "result") {
    throw WireError("unexpected wire op from worker: '" + op + "'");
  }
  const ResultMsg result = parse_result(payload);
  if (!worker.busy || result.id != worker.req_id ||
      result.index != worker.req_index) {
    throw WireError("result does not match the worker's in-flight run");
  }
  worker.busy = false;
  release(worker.req_tag);
  if (telemetry_ != nullptr) {
    telemetry_->observe(
        "timing.measure.rtt_s",
        seconds_between(worker.dispatched_at, steady_clock::now()));
  }
  // Bitwise consistency check against the dispatcher's own pool: the
  // worker's row must be the row. Any mismatch means the worker is not
  // measuring the session's pool — a fault, never data.
  const bool matches =
      result.config_fp == config_fingerprint(*pool_, result.index) &&
      bits_equal(result.exec_s, pool_->exec_s[result.index]) &&
      bits_equal(result.comp_ch, pool_->comp_ch[result.index]);
  if (!matches) {
    throw WireError("result row mismatch for pool index " +
                    std::to_string(result.index));
  }
  if (!unserved(result.index, worker.req_tag)) {
    // A hedge twin already won this run (its result may even have been
    // handed back already); the loser's identical result is discarded.
    ++stats_.hedge_wasted;
    if (telemetry_ != nullptr) telemetry_->count("measure.hedge_wasted");
    return;
  }
  completed_.emplace(result.index, RawRun{result.exec_s, result.comp_ch});
  ++stats_.completed;
  consecutive_failures_ = 0;
  worker.backoff.reset();
}

void SubprocessBackend::handle_event(const Event& event) {
  Worker& worker = *workers_[event.slot];
  if (event.generation != worker.generation || !worker.alive) return;
  if (event.closed) {
    worker_fault(event.slot, event.error.empty()
                                 ? "worker closed its stdout (EOF)"
                                 : event.error);
    return;
  }
  try {
    handle_message(event.slot, event.payload);
  } catch (const WireError& e) {
    worker_fault(event.slot, e.what());
  }
}

void SubprocessBackend::pump(double wait_s) {
  // 1. Drain the completion queue (waiting only when asked to).
  std::deque<Event> drained;
  {
    std::unique_lock lock(events_mutex_);
    if (events_.empty() && wait_s > 0.0) {
      events_cv_.wait_for(lock, std::chrono::duration<double>(wait_s));
    }
    drained.swap(events_);
  }
  for (const Event& event : drained) {
    if (degraded_) return;
    handle_event(event);
  }
  if (degraded_) return;

  // 2. Deadlines: hang detection (including a worker that never said
  //    hello) and hedged duplicate dispatch for stragglers.
  const auto now = steady_clock::now();
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    if (degraded_) return;
    Worker& worker = *workers_[slot];
    if (!worker.alive) continue;
    if (!worker.hello_ok) {
      if (seconds_between(worker.started_at, now) > options_.hang_after_s) {
        worker_fault(slot, "no hello within the hang deadline");
      }
      continue;
    }
    if (!worker.busy) continue;
    const double age = seconds_between(worker.dispatched_at, now);
    if (age > options_.hang_after_s) {
      worker_fault(slot, "run exceeded the hang deadline");
      continue;
    }
    if (age > options_.hedge_after_s) {
      const std::size_t index = worker.req_index;
      if (!unserved(index, worker.req_tag)) continue;
      auto out = outstanding_.find(worker.req_tag);
      if (out != outstanding_.end() && out->second > 1) continue;  // hedged
      for (std::size_t other = 0; other < workers_.size(); ++other) {
        Worker& twin = *workers_[other];
        if (other == slot || !twin.alive || !twin.hello_ok || twin.busy) {
          continue;
        }
        ++stats_.hedges;
        if (telemetry_ != nullptr) telemetry_->count("measure.hedge");
        dispatch(other, index, /*hedge=*/true);
        break;
      }
    }
  }
  if (degraded_) return;

  // 3. Hand pending runs to idle ready workers.
  for (std::size_t slot = 0; slot < workers_.size() && !pending_.empty();
       ++slot) {
    if (degraded_) return;
    Worker& worker = *workers_[slot];
    if (!worker.alive || !worker.hello_ok || worker.busy) continue;
    const std::size_t index = pending_.front();
    pending_.pop_front();
    queued_.erase(index);
    if (open_.find(index) == open_.end() ||
        completed_.find(index) != completed_.end()) {
      continue;
    }
    dispatch(slot, index, /*hedge=*/false);
  }
}

void SubprocessBackend::prefetch(std::span<const std::size_t> indices) {
  ensure_started();
  if (degraded_) return;
  for (const std::size_t index : indices) {
    CEAL_EXPECT(index < pool_->size());
    if (open_.find(index) == open_.end()) open_request(index, false);
  }
  // Opportunistic, non-blocking: pick up hellos and hand out work now;
  // the blocking waits happen in run().
  pump(0.0);
}

RawRun SubprocessBackend::run(std::size_t pool_index) {
  CEAL_EXPECT(pool_index < pool_->size());
  ensure_started();
  if (!degraded_) {
    if (open_.find(pool_index) == open_.end()) {
      open_request(pool_index, true);
    }
    while (!degraded_ &&
           completed_.find(pool_index) == completed_.end()) {
      pump(0.02);
    }
  }
  // Served: whatever a twin of this request still sends is stale.
  open_.erase(pool_index);
  if (degraded_) {
    auto done = completed_.find(pool_index);
    if (done != completed_.end()) {
      const RawRun raw = done->second;
      completed_.erase(done);
      return raw;
    }
    ++stats_.local_runs;
    if (telemetry_ != nullptr) telemetry_->count("measure.local_run");
    return RawRun{pool_->exec_s[pool_index], pool_->comp_ch[pool_index]};
  }
  auto done = completed_.find(pool_index);
  const RawRun raw = done->second;
  completed_.erase(done);
  return raw;
}

}  // namespace ceal::measure
