// serve-open: an open-loop client on one Unix-socket connection to a
// real `ceal_serve --checkpoint` daemon (every journal record fsynced).
// Light sessions (LV exec, pool 60, budget 6, 7 RS : 1 CEAL) are created
// continuously so that kLive stay open; step requests go round robin
// over them, with read-only session.query requests mixed in. Requests
// are sent on a fixed schedule whatever the responses do, and each is
// timed from when it was due.
//
// A run: daemon start-ups (setup_s), kLive creates, the reference-rate
// phase (step latency), a drain that finishes every open session, a
// closed-loop phase on a fresh population that keeps kWindow requests
// in flight, so the daemon sets the pace (session metrics), a binary
// search over a fixed rate ladder for the highest step rate that meets
// the latency limit without a growing backlog, and a final drain; every
// session is then checked against the same session run in-process.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/json.h"
#include "core/rng.h"
#include "harness/span_trace.h"
#include "harness/workloads.h"
#include "sim/workloads.h"
#include "tuner/ceal.h"
#include "tuner/random_search.h"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace json = ceal::json;
namespace tuner = ceal::tuner;

constexpr std::size_t kLive = 240;
constexpr std::size_t kBudget = 6;
constexpr std::size_t kPoolSize = 60;
constexpr std::size_t kComponentSamples = 30;
/// Step requests per session: enough to finish, plus the one that
/// observes the done state (as bench/bench_serve_load.cc steps).
constexpr std::size_t kStepsPerSession = kBudget + 1;
/// Every kQueryEvery-th request is a read-only session.query.
constexpr std::size_t kQueryEvery = 8;
/// Share of requests that are session.step: of every kQueryEvery
/// requests one is a read-only query, and each session's slot takes
/// kStepsPerSession steps, one final query and one create.
constexpr double kStepShare =
    (kQueryEvery - 1.0) / kQueryEvery *
    double(kStepsPerSession) / double(kStepsPerSession + 2);

/// The workload's latency limit on step_p99_ms and its reference rate.
constexpr double kLatencyLimitMs = 50.0;
constexpr double kReferenceRate = 500.0;  // session.step requests per second
/// Ladder: kReferenceRate * 2^(k/8) for k in [kLadderLow, kLadderHigh].
constexpr int kLadderLow = -8;
constexpr int kLadderHigh = 24;
constexpr int kLadderProbes = 6;
/// Requests in flight in the closed-loop phase: one per live session.
constexpr std::size_t kWindow = kLive;
/// The closed-loop phase's session figures are read per window of
/// kWindowS seconds after a warm-up of kWarmupS (the first sessions
/// created in the phase take about half a second to finish), and taken
/// from the daemon's better windows: the upper quartile of the windows'
/// session rates, the lower quartile of their session p50 / p90. Load
/// from neighbours on a shared host (CPU steal, a slow fsync) only ever
/// slows a window down, so the better quartile is the steadier reading
/// of the daemon's own pace; a change that slows every window moves it
/// as much as the median.
constexpr double kWindowS = 0.5;
constexpr double kWarmupS = 1.0;
constexpr double kBetterQuartile = 0.25;
/// Shares of the run's seconds: the reference phase, the closed-loop
/// phase and the ladder search.
constexpr double kReferenceShare = 0.2;
constexpr double kClosedShare = 0.5;
constexpr double kLadderShare = 0.2;
constexpr int kSetupRepeats = 31;
/// Sessions created first: all are compared with their in-process run
/// and give norm_perf; beyond them every 16th session is compared.
constexpr std::size_t kCheckedSessions = 64;
constexpr std::size_t kCheckEvery = 16;

double ladder_rate(int k) { return kReferenceRate * std::exp2(k / 8.0); }

// --- The daemon process ---------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& work_dir,
         const std::string& socket, std::vector<std::string> extra) {
    std::vector<std::string> args = {bin, "--socket", socket, "--threads",
                                     std::to_string(threads())};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    const std::string log = work_dir + "/daemon.log";
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Daemon session threads: the client's writer and reader take the
  /// other two CPUs, so daemon plus generator stay within nproc.
  static std::size_t threads() {
    return cpu_count() > 2 ? cpu_count() - 2 : 1;
  }

  int pid() const { return pid_; }

  /// User + system CPU seconds the daemon used so far.
  double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(stat.substr(close + 2));
    std::string f;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::strtod(f.c_str(), nullptr);
      if (i == 15) stime = std::strtod(f.c_str(), nullptr);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// SIGTERM drain (the client must have closed its connection), then
  /// SIGKILL if the daemon has not exited within 10 s. Idempotent.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

// --- The client connection ------------------------------------------------

class Connection {
 public:
  /// Connects to `path`, retrying while the daemon starts up.
  Connection(const std::string& path, double timeout_s) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    const double deadline = now_s() + timeout_s;
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (now_s() > deadline) throw std::runtime_error("cannot connect to " + path);
      // The poll interval bounds the resolution of setup_s (a daemon
      // start-up takes about 2 ms).
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Ends both directions: a read blocked in another thread returns.
  void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

  void send(const std::string& line) {
    std::string data = line + "\n";
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to daemon failed");
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  /// Next response line; false at end of stream.
  bool read_line(std::string& line) {
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// One request, one response (no other request in flight).
  json::Value call(const std::string& line) {
    send(line);
    std::string response;
    if (!read_line(response)) throw std::runtime_error("daemon closed the connection");
    return json::Value::parse(response);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --- The request schedule -------------------------------------------------

enum class Kind { kCreate, kStep, kQuery, kFinal, kControl };

struct Request {
  Kind kind;
  std::size_t session;
  std::string line;
};

struct SessionSpec {
  std::string algorithm;
  std::uint64_t seed;
  std::uint64_t pool_seed;
};

SessionSpec session_spec(std::uint64_t seed, std::size_t n) {
  return {n % 8 == 0 ? "CEAL" : "RS", derive_seed(seed, 1000 + n) % 1'000'000'007,
          derive_seed(seed, 2'000'000 + n) % 1'000'000'007};
}

std::string session_id(std::size_t n) { return "s" + std::to_string(n); }

/// The deterministic request stream: round robin over kLive slots,
/// each slot stepping its session kStepsPerSession times, querying its
/// result, then creating the next session; every kQueryEvery-th request
/// is a read-only query of a slot drawn from the seeded rng.
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : seed_(seed), rng_(derive_seed(seed, 7)) {}

  std::size_t sessions_created() const { return next_session_; }

  /// Forgets the slots (their sessions must be finished); the next
  /// initial_create calls fill a fresh population.
  void reset_slots() {
    slots_.clear();
    cursor_ = 0;
  }

  /// The create request that fills slot `i` at start-up.
  Request initial_create(std::size_t i) {
    slots_.push_back({next_session_, 0, false});
    return create(i);
  }

  Request next() {
    if (++counter_ % kQueryEvery == 0) {
      const std::size_t s = slots_[rng_.uniform_u64(slots_.size())].session;
      return {Kind::kQuery, s, query_line(s)};
    }
    const std::size_t i = cursor_;
    cursor_ = (cursor_ + 1) % slots_.size();
    return advance(i);
  }

  /// The next request of slot `i`'s lifecycle: its session's steps, the
  /// final query, then the create of the slot's next session.
  Request advance(std::size_t i) {
    Slot& slot = slots_[i];
    if (slot.steps < kStepsPerSession) {
      ++slot.steps;
      return {Kind::kStep, slot.session, step_line(slot.session)};
    }
    if (!slot.final_sent) {
      slot.final_sent = true;
      return {Kind::kFinal, slot.session, query_line(slot.session)};
    }
    slot = {next_session_, 0, false};
    return create(i);
  }

  /// Requests that finish every open session (remaining steps and the
  /// final query).
  std::vector<Request> drain() {
    std::vector<Request> out;
    for (Slot& slot : slots_) {
      for (; slot.steps < kStepsPerSession; ++slot.steps) {
        out.push_back({Kind::kStep, slot.session, step_line(slot.session)});
      }
      if (!slot.final_sent) {
        slot.final_sent = true;
        out.push_back({Kind::kFinal, slot.session, query_line(slot.session)});
      }
    }
    return out;
  }

 private:
  struct Slot {
    std::size_t session;
    std::size_t steps;
    bool final_sent;
  };

  Request create(std::size_t slot) {
    const std::size_t n = next_session_++;
    slots_[slot].session = n;
    const SessionSpec spec = session_spec(seed_, n);
    std::ostringstream os;
    os << "{\"op\":\"session.create\",\"id\":\"" << session_id(n)
       << "\",\"workflow\":\"LV\",\"objective\":\"exec\",\"budget\":" << kBudget
       << ",\"algorithm\":\"" << spec.algorithm << "\",\"seed\":" << spec.seed
       << ",\"pool_size\":" << kPoolSize << ",\"pool_seed\":" << spec.pool_seed
       << ",\"component_samples\":" << kComponentSamples << "}";
    return {Kind::kCreate, n, os.str()};
  }
  static std::string step_line(std::size_t n) {
    return "{\"op\":\"session.step\",\"id\":\"" + session_id(n) + "\"}";
  }
  static std::string query_line(std::size_t n) {
    return "{\"op\":\"session.query\",\"id\":\"" + session_id(n) + "\"}";
  }

  std::uint64_t seed_;
  ceal::Rng rng_;
  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;
  std::size_t next_session_ = 0;
  std::uint64_t counter_ = 0;
};

// --- The open-loop generator ----------------------------------------------

/// What a finished session's final query reported.
struct SessionResult {
  bool done = false;
  std::uint64_t best_predicted = 0;
  std::uint64_t runs_used = 0;
  std::uint64_t measured = 0;
  std::string cost_exec_s;
  std::string cost_comp_ch;
};

SessionResult final_result(const json::Value& response) {
  SessionResult r;
  r.done = response.at("state").as_string() == "done";
  if (r.done) {
    r.best_predicted = response.at("best_predicted_index").as_int();
    r.runs_used = response.at("runs_used").as_int();
    r.measured = response.at("measured").as_int();
    r.cost_exec_s = response.at("cost_exec_s").as_string();
    r.cost_comp_ch = response.at("cost_comp_ch").as_string();
  }
  return r;
}

struct PhaseStats {
  std::vector<double> step_ms;    ///< step latency from due time
  std::vector<double> create_ms;
  std::vector<double> lag_ms;     ///< send time - due time
  std::size_t steps_sent = 0;
  std::size_t outstanding_at_end = 0;
  double start = 0.0, end = 0.0;
  /// When the final query of each session that finished came back (ok
  /// and done) before `end`.
  std::vector<double> finished_at;
  std::vector<double> session_ms;  ///< sessions created and finished here
  std::vector<double> session_end;  ///< when each of those finished
};

/// One connection with its response reader thread. Responses arrive in
/// request order; each is matched with the oldest pending request. The
/// report is only touched from the sending thread.
class Generator {
 public:
  Generator(Connection& conn, Report& report) : conn_(conn), report_(report) {
    reader_ = std::thread([this] { read_loop(); });
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  ~Generator() {
    conn_.shutdown();
    reader_.join();
  }

  /// Sends `req` now as part of phase `phase` (-1: untimed), due at `due`.
  void send(const Request& req, int phase, double due) {
    {
      std::lock_guard lock(mutex_);
      pending_.push_back({req.kind, req.session, phase, due});
      ++sent_;
      if (req.kind == Kind::kCreate) created_due_[req.session] = {phase, due};
      if (phase >= 0) {
        auto& p = phases_[phase];
        if (req.kind == Kind::kStep) ++p.steps_sent;
      }
    }
    report_.attempt();
    conn_.send(req.line);
    if (phase >= 0) {
      const double lag = now_s() - due;
      std::lock_guard lock(mutex_);
      phases_[phase].lag_ms.push_back(1e3 * lag);
    }
  }

  /// Sends `schedule` requests at `step_rate` session.step requests per
  /// second (all requests evenly spaced) for `seconds`, then waits for
  /// every response.
  PhaseStats run_phase(Schedule& schedule, double step_rate, double seconds) {
    const int phase = next_phase_++;
    const double interval = kStepShare / step_rate;
    const double t0 = now_s();
    {
      std::lock_guard lock(mutex_);
      phases_[phase].start = t0;
    }
    for (std::size_t k = 0;; ++k) {
      const double due = t0 + static_cast<double>(k) * interval;
      if (due >= t0 + seconds) break;
      sleep_until(due);
      send(schedule.next(), phase, due);
    }
    {
      std::lock_guard lock(mutex_);
      phases_[phase].end = now_s();
      phases_[phase].outstanding_at_end = sent_ - received_;
    }
    wait_idle();
    std::lock_guard lock(mutex_);
    return phases_[phase];
  }

  /// Sends `schedule` requests closed loop for `seconds`: the next one
  /// as soon as fewer than `window` are in flight, so the daemon's
  /// answers set the pace. Then waits for every response.
  PhaseStats run_closed(Schedule& schedule, std::size_t window, double seconds) {
    const int phase = next_phase_++;
    const double t0 = now_s();
    {
      std::lock_guard lock(mutex_);
      phases_[phase].start = t0;
    }
    while (now_s() < t0 + seconds) {
      {
        std::unique_lock lock(mutex_);
        room_.wait(lock, [&] { return sent_ - received_ < window || eof_; });
        if (eof_) break;
      }
      send(schedule.next(), phase, now_s());
    }
    {
      std::lock_guard lock(mutex_);
      phases_[phase].end = now_s();
      phases_[phase].outstanding_at_end = sent_ - received_;
    }
    wait_idle();
    std::lock_guard lock(mutex_);
    return phases_[phase];
  }

  /// Blocks until every sent request has its response, then moves the
  /// failed responses into the report.
  void wait_idle() {
    std::unique_lock lock(mutex_);
    if (!idle_.wait_for(lock, std::chrono::seconds(120),
                        [this] { return received_ == sent_ || eof_; })) {
      throw std::runtime_error("daemon did not answer within 120 s");
    }
    if (received_ != sent_) throw std::runtime_error("daemon closed the connection");
    for (const auto& e : errors_) report_.fail(e);
    errors_.clear();
  }

  /// One request outside the schedule (server.metrics): sends it after
  /// everything in flight and returns its response.
  json::Value call(const std::string& line) {
    send({Kind::kControl, 0, line}, -1, now_s());
    wait_idle();
    std::lock_guard lock(mutex_);
    return control_;
  }

  std::map<std::size_t, SessionResult> results() {
    std::lock_guard lock(mutex_);
    return results_;
  }

 private:
  struct Pending {
    Kind kind;
    std::size_t session;
    int phase;
    double due;
  };

  static void sleep_until(double due) {
    const double wait = due - now_s();
    if (wait <= 0.0) return;
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    const double target = static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec + wait;
    ts.tv_sec = static_cast<time_t>(target);
    ts.tv_nsec = static_cast<long>((target - std::floor(target)) * 1e9);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  }

  void read_loop() {
    std::string line;
    while (conn_.read_line(line)) {
      const double at = now_s();
      std::unique_lock lock(mutex_);
      if (pending_.empty()) {
        errors_.push_back("response without a request: " + line);
        continue;
      }
      const Pending p = pending_.front();
      pending_.pop_front();
      lock.unlock();
      // Nothing may escape this thread: a malformed response is a
      // failed operation like an ok:false one.
      json::Value response;
      bool ok = false;
      SessionResult result;
      try {
        response = json::Value::parse(line);
        ok = response.at("ok").as_bool();
        if (ok && p.kind == Kind::kFinal) result = final_result(response);
      } catch (const std::exception&) {
        ok = false;
      }
      lock.lock();
      if (!ok) errors_.push_back("failed response: " + line);
      const double ms = 1e3 * (at - p.due);
      if (p.phase >= 0) {
        auto& stats = phases_[p.phase];
        if (p.kind == Kind::kStep) stats.step_ms.push_back(ms);
        if (p.kind == Kind::kCreate) stats.create_ms.push_back(ms);
      }
      if (p.kind == Kind::kControl) control_ = response;
      if (p.kind == Kind::kFinal && ok) {
        results_[p.session] = result;
        const auto created = created_due_.find(p.session);
        if (p.phase >= 0) {
          auto& stats = phases_[p.phase];
          if (result.done && stats.end == 0.0) stats.finished_at.push_back(at);
          if (created != created_due_.end() && created->second.first == p.phase) {
            stats.session_ms.push_back(1e3 * (at - created->second.second));
            stats.session_end.push_back(at);
          }
        }
      }
      ++received_;
      room_.notify_one();
      if (received_ == sent_) idle_.notify_all();
    }
    std::lock_guard lock(mutex_);
    eof_ = true;
    idle_.notify_all();
    room_.notify_one();
  }

  Connection& conn_;
  Report& report_;
  std::mutex mutex_;
  std::condition_variable idle_;
  std::condition_variable room_;  ///< a response came back
  std::deque<Pending> pending_;
  std::size_t sent_ = 0, received_ = 0;
  bool eof_ = false;
  int next_phase_ = 0;
  std::map<int, PhaseStats> phases_;
  std::map<std::size_t, std::pair<int, double>> created_due_;
  std::map<std::size_t, SessionResult> results_;
  std::vector<std::string> errors_;  ///< failed responses, for the report
  json::Value control_;              ///< response to the last call()
  std::thread reader_;  // last: joins before the members it uses go
};

// --- Helpers --------------------------------------------------------------

struct ServerCounters {
  double step_total_s = 0.0;
  double steps = 0.0;
  double requests = 0.0;
  double errors = 0.0;
};

ServerCounters server_counters(Generator& gen) {
  const json::Value m = gen.call("{\"op\":\"server.metrics\"}");
  ServerCounters c;
  if (const auto* spans = m.find("spans")) {
    if (const auto* step = spans->find("serve.step")) {
      c.step_total_s = step->at("total_s").as_double();
      c.steps = step->at("count").as_double();
    }
  }
  if (const auto* counters = m.find("counters")) {
    if (const auto* r = counters->find("serve.requests")) c.requests = r->as_double();
    if (const auto* e = counters->find("serve.errors")) c.errors = e->as_double();
  }
  return c;
}

/// Starts a daemon on `socket` and times it up to its first ok response.
double start_daemon(const Options& options, const std::string& socket,
                    const std::vector<std::string>& extra,
                    std::unique_ptr<Daemon>& daemon,
                    std::unique_ptr<Connection>& conn) {
  ::unlink(socket.c_str());
  const double t0 = now_s();
  daemon = std::make_unique<Daemon>(options.bin_dir + "/ceal_serve",
                                    options.work_dir, socket, extra);
  conn = std::make_unique<Connection>(socket, 30.0);
  const json::Value r = conn->call("{\"op\":\"server.stats\"}");
  const double elapsed = now_s() - t0;
  if (!r.at("ok").as_bool()) throw std::runtime_error("server.stats failed");
  return elapsed;
}

/// Compares finished sessions with the same session run in-process.
double check_sessions(const Options& options,
                      const std::map<std::size_t, SessionResult>& results,
                      std::size_t created, Report& report) {
  const ceal::sim::Workload workload = ceal::sim::make_lv();
  std::size_t compared = 0;
  double norm = 0.0;
  for (std::size_t n = 0; n < created; ++n) {
    const auto it = results.find(n);
    if (it == results.end() || !it->second.done) {
      report.fail("session " + session_id(n) + " did not finish");
      continue;
    }
    if (n >= kCheckedSessions && n % kCheckEvery != 0) continue;
    const SessionSpec spec = session_spec(options.seed, n);
    const auto pool = tuner::measure_pool(workload.workflow, kPoolSize, spec.pool_seed);
    const auto comps = tuner::measure_components(workload.workflow, kComponentSamples,
                                                 spec.pool_seed + 1);
    const tuner::TuningProblem problem{&workload, tuner::Objective::kExecTime, &pool,
                                       &comps, /*components_are_history=*/false, {}};
    ceal::Rng rng(spec.seed);
    const tuner::TuneResult expected =
        spec.algorithm == "CEAL" ? tuner::Ceal().tune(problem, kBudget, rng)
                                 : tuner::RandomSearch().tune(problem, kBudget, rng);
    const SessionResult& got = it->second;
    ++compared;
    if (got.best_predicted != expected.best_predicted_index ||
        got.runs_used != expected.runs_used ||
        got.measured != expected.measured_indices.size() ||
        std::strtod(got.cost_exec_s.c_str(), nullptr) != expected.cost_exec_s ||
        std::strtod(got.cost_comp_ch.c_str(), nullptr) != expected.cost_comp_ch) {
      report.fail("session " + session_id(n) + " differs from its in-process run");
    }
    if (n < kCheckedSessions) {
      const auto& truth = pool.truth(tuner::Objective::kExecTime);
      norm += truth[expected.best_predicted_index] /
              truth[pool.best_truth_index(tuner::Objective::kExecTime)] /
              double(kCheckedSessions);
    }
  }
  report.note(std::to_string(created) + " sessions finished; " +
              std::to_string(compared) + " compared with their in-process run");
  return norm;
}

double journal_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".cealj") bytes += double(entry.file_size());
  }
  return bytes;
}

/// One daemon's life: start, kLive creates, the reference phase, the
/// optional closed-loop phase and ladder search, the drains, the checks.
struct DaemonRun {
  double setup_s = 0.0;
  PhaseStats reference;
  PhaseStats closed;
  ServerCounters ref_delta;    ///< server counters over the reference phase
  ServerCounters total;        ///< up to the drain after the reference phase
  double ref_cpu_s = 0.0;      ///< daemon CPU over the reference phase
  double closed_cpu_s = 0.0;   ///< daemon CPU over the closed-loop phase
  double closed_client_cpu_s = 0.0;  ///< this process's CPU, same phase
  double max_steps_per_s = 0.0;
  double peak_rss_mb = 0.0;
  double norm_perf = 0.0;
  double cost_exec_s = 0.0;    ///< charged by the sessions in `total`
};

/// `closed_seconds` / `ladder_seconds` 0: no closed-loop phase / no
/// ladder search. `setup_repeats` daemon start-ups are timed; the last
/// one serves the run.
DaemonRun run_daemon(const Options& options, const std::string& tag,
                     double ref_seconds, double closed_seconds,
                     double ladder_seconds, int setup_repeats, StealSampler& steal,
                     Report& report) {
  const std::string dir = options.work_dir + "/" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir + "/checkpoint");
  std::vector<std::string> extra = {"--checkpoint", dir + "/checkpoint"};
  if (tag == "traced") {
    fs::create_directories(dir + "/traces");
    extra.insert(extra.end(), {"--trace-dir", dir + "/traces"});
  }
  DaemonRun run;
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Connection> conn;
  for (int r = 0; r < setup_repeats; ++r) {
    conn.reset();
    daemon.reset();
    const double elapsed = start_daemon(options, dir + "/serve.sock", extra, daemon, conn);
    const double t1 = now_s();
    setup.push_back(unstolen(elapsed, steal.share(t1 - elapsed, t1)));
  }
  run.setup_s = percentile(setup, 0.5);

  Schedule schedule(options.seed);
  std::optional<Generator> generator;
  Generator& gen = generator.emplace(*conn, report);
  // Start-up: create every slot's session, then move slot i i % 9
  // requests into its lifecycle, so creates, steps and final queries
  // spread evenly over the open-loop phases instead of arriving in
  // waves.
  const auto populate = [&] {
    schedule.reset_slots();
    for (std::size_t i = 0; i < kLive; ++i) gen.send(schedule.initial_create(i), -1, now_s());
    for (std::size_t i = 0; i < kLive; ++i) {
      for (std::size_t k = 0; k < i % (kStepsPerSession + 2); ++k) {
        gen.send(schedule.advance(i), -1, now_s());
      }
    }
    gen.wait_idle();
  };
  const auto drain = [&] {
    for (const Request& req : schedule.drain()) gen.send(req, -1, now_s());
    gen.wait_idle();
  };

  populate();
  const ServerCounters before = server_counters(gen);
  const double cpu0 = daemon->cpu_s();
  run.reference = gen.run_phase(schedule, kReferenceRate, ref_seconds);
  run.ref_cpu_s = daemon->cpu_s() - cpu0;
  const ServerCounters after = server_counters(gen);
  run.ref_delta = {after.step_total_s - before.step_total_s, after.steps - before.steps,
                   after.requests - before.requests, after.errors - before.errors};
  // Every session so far runs to completion, so the daemon's step time
  // and the simulated time charged cover the same sessions; memory is
  // read before the ladder, whose rates differ from run to run.
  drain();
  run.total = server_counters(gen);
  for (const auto& [n, r] : gen.results()) {
    if (r.done) run.cost_exec_s += std::strtod(r.cost_exec_s.c_str(), nullptr);
  }
  run.peak_rss_mb = pid_peak_rss_mb(daemon->pid());
  if (closed_seconds > 0.0) {
    populate();
    const double closed_cpu0 = daemon->cpu_s();
    const double client_cpu0 = process_cpu_s();
    run.closed = gen.run_closed(schedule, kWindow, closed_seconds);
    run.closed_cpu_s = daemon->cpu_s() - closed_cpu0;
    run.closed_client_cpu_s = process_cpu_s() - client_cpu0;
    drain();
  }

  const auto passes = [](const PhaseStats& p, double step_rate) {
    const double limit_s = kLatencyLimitMs / 1e3;
    const bool backlog = double(p.outstanding_at_end) >
                         step_rate / kStepShare * limit_s + 8.0;
    return !backlog && percentile(p.step_ms, 0.99) <= kLatencyLimitMs;
  };
  if (ladder_seconds > 0.0) {
    // Binary search over the ladder on a fresh session population,
    // assuming a level that fails has no passing level above it. The
    // reference phase is level 0.
    populate();
    int lo = kLadderLow - 1, hi = kLadderHigh + 1;
    (passes(run.reference, kReferenceRate) ? lo : hi) = 0;
    const double probe_s = ladder_seconds / kLadderProbes;
    std::ostringstream os;
    os << "ladder (step rate: p99 ms, backlog at window end):";
    for (int probe = 0; probe < kLadderProbes && hi - lo > 1; ++probe) {
      const int mid = lo + (hi - lo) / 2;
      const PhaseStats p = gen.run_phase(schedule, ladder_rate(mid), probe_s);
      const bool ok = passes(p, ladder_rate(mid));
      os << " " << ladder_rate(mid) << ": " << percentile(p.step_ms, 0.99) << ", "
         << p.outstanding_at_end << (ok ? " pass;" : " fail;");
      (ok ? lo : hi) = mid;
    }
    report.note(os.str());
    run.max_steps_per_s = ladder_rate(std::max(lo, kLadderLow));
    if (lo < kLadderLow) report.note("no ladder level met the latency limit");
    drain();
  }
  const auto results = gen.results();
  generator.reset();
  conn.reset();
  daemon->stop();
  if (tag != "traced") fs::remove_all(dir);
  run.norm_perf = check_sessions(options, results, schedule.sessions_created(), report);
  return run;
}

}  // namespace

void run_serve_open(const Options& options, Report& report) {
  fs::create_directories(options.work_dir);
  std::ostringstream os;
  os << "open loop, one connection, daemon --threads " << Daemon::threads()
     << "; reference rate " << kReferenceRate << " steps/s, latency limit p99 <= "
     << kLatencyLimitMs << " ms, " << kLive << " live sessions";
  report.note(os.str());

  // A traced run keeps the run's length: it skips the set-up repeats
  // and the closed-loop phase, halves the ladder search, and runs the
  // reference phase twice as long, untraced and then traced.
  const double seconds = options.seconds;
  const double ref_seconds = (options.trace ? 2.0 : 1.0) * kReferenceShare * seconds;
  StealSampler steal;
  const DaemonRun run =
      run_daemon(options, "untraced", ref_seconds,
                 options.trace ? 0.0 : kClosedShare * seconds,
                 (options.trace ? 0.5 : 1.0) * kLadderShare * seconds,
                 options.trace ? 1 : kSetupRepeats, steal, report);
  const PhaseStats& ref = run.reference;
  const double ref_wall = ref.end - ref.start;
  os.str("");
  os << "reference phase: " << ref.steps_sent << " steps in " << ref_wall
     << " s; step p99 has " << samples_beyond(ref.step_ms.size(), 0.99)
     << " samples beyond it; generator lag p50 "
     << percentile(ref.lag_ms, 0.5) << " ms, p99 " << percentile(ref.lag_ms, 0.99)
     << " ms; step latency p50 " << percentile(ref.step_ms, 0.5) << " ms, p99 "
     << percentile(ref.step_ms, 0.99) << " ms";
  report.note(os.str());
  const double overhead =
      run.cost_exec_s > 0 ? 1e6 * run.total.step_total_s / run.cost_exec_s : 0.0;
  os.str("");
  os << "ladder max " << run.max_steps_per_s << " steps/s; overhead_ppm " << overhead
     << ", base " << run.total.step_total_s << " s daemon step time / "
     << run.cost_exec_s << " s simulated measurement time charged";
  report.note(os.str());

  if (!options.trace) {
    // Session figures of the closed-loop phase, per window: the session
    // rate and the p50 / p90 of the sessions that finished in it, each
    // leaving out the share of its time the host stole.
    const PhaseStats& closed = run.closed;
    const double closed_wall = closed.end - closed.start;
    const double from = closed.start + kWarmupS;
    std::vector<double> rates, p50s, p90s;
    const auto by_rate =
        window_groups(closed.finished_at, closed.finished_at, from, closed.end, kWindowS);
    for (std::size_t w = 0; w < by_rate.size(); ++w) {
      const double w0 = from + double(w) * kWindowS;
      rates.push_back(double(by_rate[w].size()) /
                      unstolen(kWindowS, steal.share(w0, w0 + kWindowS)));
    }
    std::vector<double> unstolen_ms;
    for (std::size_t i = 0; i < closed.session_ms.size(); ++i) {
      const double end = closed.session_end[i];
      const double ms = closed.session_ms[i];
      unstolen_ms.push_back(unstolen(ms, steal.share(end - 1e-3 * ms, end)));
    }
    std::size_t fewest = closed.session_ms.size();
    for (const auto& ms :
         window_groups(closed.session_end, unstolen_ms, from, closed.end, kWindowS)) {
      p50s.push_back(percentile(ms, 0.5));
      p90s.push_back(percentile(ms, 0.9));
      fewest = std::min(fewest, ms.size());
    }
    os.str("");
    os << "closed loop, " << kWindow << " requests in flight: "
       << closed.finished_at.size() << " sessions finished and " << closed.steps_sent
       << " steps sent in " << closed_wall << " s (" << double(closed.steps_sent) / closed_wall
       << " steps/s; daemon CPU " << run.closed_cpu_s / closed_wall << " of "
       << Daemon::threads() << " session threads, client CPU "
       << run.closed_client_cpu_s / closed_wall << "); session figures are the better "
       << "quartile of " << rates.size() << " windows of " << kWindowS << " s after "
       << kWarmupS << " s of warm-up (session rate min " << percentile(rates, 0.0)
       << ", median " << percentile(rates, 0.5) << ", max " << percentile(rates, 1.0)
       << " /s; session p50 median " << percentile(p50s, 0.5) << " ms, p90 median "
       << percentile(p90s, 0.5) << " ms; the fewest sessions in a window, " << fewest
       << ", leave " << samples_beyond(fewest, 0.9) << " beyond its p90); host steal "
       << steal.share(closed.start, closed.end)
       << " of the busy CPU time in the phase (/proc/stat steal / (busy + steal)), left "
       << "out of every window and session";
    report.note(os.str());
    report.metric("setup_s", run.setup_s, "s");
    report.metric("sessions_per_s", percentile(rates, 1.0 - kBetterQuartile), "1/s");
    report.metric("session_p50_ms", percentile(p50s, kBetterQuartile), "ms");
    report.metric("session_p90_ms", percentile(p90s, kBetterQuartile), "ms");
    report.metric("peak_rss_mb", run.peak_rss_mb, "MB");
    report.metric("norm_perf", run.norm_perf, "ratio");
    return;
  }

  // Traced run: the same start-up and reference phase against a daemon
  // with per-session trace files.
  const DaemonRun traced = run_daemon(options, "traced", ref_seconds, 0.0, 0.0, 1, steal, report);
  const std::string dir = options.work_dir + "/traced";
  std::vector<SpanRecord> all, window;
  for (const auto& entry : fs::directory_iterator(dir + "/traces")) {
    if (entry.path().string().ends_with(".trace.jsonl")) {
      auto spans = read_trace_spans(entry.path().string());
      all.insert(all.end(), spans.begin(), spans.end());
    }
  }
  const PhaseStats& tref = traced.reference;
  for (const auto& s : all) {
    if (s.start >= tref.start && s.start < tref.end) window.push_back(s);
  }
  LayerMetrics layers;
  layers.from_trace(report, window, tref.start, tref.end, nullptr);
  double flush = 0.0, records = 0.0;
  for (const auto& s : all) {
    if (s.name == "checkpoint.flush") {
      flush += s.end - s.start;
      ++records;
    }
  }
  layers.set("checkpoint.records", records);
  layers.set("checkpoint.flush_s", flush);
  layers.set("checkpoint.bytes", journal_bytes(dir + "/checkpoint"));
  report.note("checkpoint.*: every journal record of the traced daemon's life");
  layers.set("serve.step_s", traced.ref_delta.step_total_s);
  layers.set("serve.create_ms_p50", percentile(tref.create_ms, 0.5));
  double client = 0.0;
  for (const double ms : tref.step_ms) client += ms;
  if (!tref.step_ms.empty()) {
    layers.set("serve.queue_ms",
               (client - 1e3 * traced.ref_delta.step_total_s) / double(tref.step_ms.size()));
  }
  layers.set("serve.requests", traced.ref_delta.requests);
  layers.set("serve.errors", traced.ref_delta.errors);
  layers.set("gen.lag_p99_ms", percentile(ref.lag_ms, 0.99));
  layers.cpu_per_wall(report, run.ref_cpu_s, ref_wall);
  layers.set("step_p50_ms", percentile(ref.step_ms, 0.5));
  layers.set("step_p99_ms", percentile(ref.step_ms, 0.99));
  layers.set("max_steps_per_s", run.max_steps_per_s);
  layers.set("overhead_ppm", overhead);
  const double untraced_per_step = run.ref_delta.step_total_s / std::max(1.0, run.ref_delta.steps);
  const double traced_per_step =
      traced.ref_delta.step_total_s / std::max(1.0, traced.ref_delta.steps);
  layers.overhead(report, traced_per_step, untraced_per_step,
                  "daemon serve.step seconds per step request at the reference rate");
  layers.emit(report);
  fs::remove_all(dir);
}

}  // namespace perfbench
