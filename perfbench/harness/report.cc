#include "harness/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "core/json.h"
#include "harness/span_trace.h"

namespace perfbench {

namespace json = ceal::json;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::fail(const std::string& what, std::uint64_t count) {
  failed_ += count;
  failures_.push_back(what);
}

void Report::print_details(const Options& options) const {
  std::ostringstream os;
  os << "perfbench " << options.workload << " seed=" << options.seed
     << " seconds=" << options.seconds << " trace=" << options.trace << "\n";
  os << "  source: " << options.describe << "\n";
  os << "  build: " << PERFBENCH_BUILD_TYPE << ", " << PERFBENCH_COMPILER
     << ", nproc=" << cpu_count() << "\n";
  for (const auto& line : notes_) os << "  " << line << "\n";
  for (const auto& what : failures_) os << "  FAILED: " << what << "\n";
  os << "  attempted=" << attempted_ << " failed=" << failed_
     << " fail_frac=" << (attempted_ > 0 ? double(failed_) / attempted_ : 0.0)
     << " (failed / attempted)\n";
  for (const auto& [name, m] : metrics_) {
    os << "  " << std::left << std::setw(26) << name << " "
       << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
  std::cerr << os.str() << std::flush;
}

std::string Report::result_line() const {
  json::Value metrics = json::Value::object();
  for (const auto& [name, m] : metrics_) {
    json::Value v = json::Value::object();
    v.set("value", json::Value::number(std::isfinite(m.value) ? m.value : 0.0));
    v.set("unit", json::Value::string(m.unit));
    metrics.set(name, std::move(v));
  }
  json::Value root = json::Value::object();
  root.set("correct", json::Value::boolean(correct()));
  root.set("attempted", json::Value::number(attempted_));
  root.set("failed", json::Value::number(failed_));
  root.set("metrics", std::move(metrics));
  return root.dump();
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(v));
  return add(bits);
}

Digest& Digest::add(const std::string& s) {
  for (const unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  return add(static_cast<std::uint64_t>(s.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void check_digest(Report& report, const Options& options,
                  const std::string& what, const std::string& digest,
                  std::uint64_t ops) {
  if (options.record) {
    std::cout << "digest " << options.workload << " " << options.seed << " "
              << what << " " << digest << "\n";
    return;
  }
  std::optional<std::string> expected;
  std::ifstream in(options.reference);
  if (in.good()) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    const json::Value root = json::Value::parse(buffer.str());
    if (const auto* wl = root.find(options.workload)) {
      // "*" holds digests of outputs that do not depend on the seed.
      for (const std::string& key : {std::to_string(options.seed), std::string("*")}) {
        const auto* seed = wl->find(key);
        const auto* d = seed != nullptr ? seed->find(what) : nullptr;
        if (d != nullptr && !expected) expected = d->as_string();
      }
    }
  }
  if (!expected) {
    report.note("digest " + what + " = " + digest +
                " (no reference recorded for this seed; not checked)");
    return;
  }
  if (*expected != digest) {
    report.fail(what + " digest " + digest + " != reference " + *expected,
                ops);
  } else {
    report.note("digest " + what + " = " + digest + " matches the reference");
  }
}

double self_peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pid_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

double process_cpu_s() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::size_t cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n >= 1 ? static_cast<std::size_t>(n) : 1;
}

double now_s() { return ceal::telemetry::monotonic_seconds(); }

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  return std::getline(in, line) ? parse_cpu_ticks(line) : CpuTicks{};
}

StealSampler::StealSampler() {
  sample();
  thread_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; })) {
      sample();
    }
  });
}

StealSampler::~StealSampler() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void StealSampler::sample() { samples_.push_back(TickSample{now_s(), read_cpu_ticks()}); }

double StealSampler::share(double t0, double t1) {
  std::lock_guard lock(mutex_);
  if (samples_.back().t < t1) sample();
  return steal_share(samples_, t0, t1);
}

std::vector<double> milliseconds(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(1e3 * s);
  return ms;
}

LayerMetrics::LayerMetrics() {
  order_ = {
      {"sim.measure_pool_s", "s"},      {"sim.measure_components_s", "s"},
      {"tuner.pool_graph_s", "s"},      {"ml.fit_s", "s"},
      {"ml.fits", "count"},             {"ml.fit_rounds", "count"},
      {"ml.predict_s", "s"},            {"ml.predict_rows", "count"},
      {"ml.predict_rows_per_s", "1/s"}, {"tuner.lowfi_score_s", "s"},
      {"tuner.featurize_s", "s"},       {"tuner.step_self_s", "s"},
      {"tuner.steps", "count"},         {"core.cpu_per_wall", "ratio"},
      {"measure.spawn_s", "s"},         {"measure.wait_s", "s"},
      {"measure.rtt_p50_ms", "ms"},     {"measure.rtt_p99_ms", "ms"},
      {"measure.dispatched", "count"},  {"measure.runs", "count"},
      {"measure.useful_ratio", "ratio"}, {"measure.hedges", "count"},
      {"measure.hedge_wasted", "count"}, {"measure.worker_restarts", "count"},
      {"checkpoint.records", "count"},  {"checkpoint.bytes", "bytes"},
      {"checkpoint.flush_s", "s"},      {"serve.step_s", "s"},
      {"serve.create_ms_p50", "ms"},    {"serve.queue_ms", "ms"},
      {"serve.requests", "count"},      {"serve.errors", "count"},
      {"gen.lag_p99_ms", "ms"},         {"self.sim_s", "s"},
      {"self.ml_s", "s"},               {"self.tuner_s", "s"},
      {"self.measure_s", "s"},          {"self.serve_s", "s"},
      {"self.core_s", "s"},             {"unattributed_s", "s"},
      {"trace_overhead_frac", "ratio"}, {"fail_frac", "ratio"},
      {"step_p50_ms", "ms"},            {"step_p99_ms", "ms"},
      {"max_steps_per_s", "1/s"},       {"overhead_ppm", "ppm"},
  };
}

void LayerMetrics::set(const std::string& name, double value) {
  values_[name] = value;
}

double LayerMetrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void LayerMetrics::from_trace(Report& report,
                              const std::vector<SpanRecord>& spans, double t0,
                              double t1,
                              const ceal::telemetry::Telemetry* telemetry) {
  const WallSplit split = split_wall(spans, t0, t1);
  std::map<std::string, double> total;
  for (const auto& s : spans) total[s.name] += std::max(0.0, s.end - s.start);
  const auto count = [&](const char* name) -> double {
    const auto it = split.count_by_name.find(name);
    return it == split.count_by_name.end() ? 0.0 : double(it->second);
  };
  const auto thread_self = [&](const char* name) {
    const auto it = split.thread_self_by_name.find(name);
    return it == split.thread_self_by_name.end() ? 0.0 : it->second;
  };
  set("sim.measure_pool_s", total["sim.measure_pool"]);
  set("sim.measure_components_s", total["sim.measure_components"]);
  set("tuner.pool_graph_s", total["tuner.pool_graph"]);
  set("ml.fit_s", total["surrogate.fit"]);
  set("ml.fits", count("surrogate.fit"));
  set("ml.predict_s", total["gbt.predict"]);
  set("tuner.lowfi_score_s", total["low_fidelity.score"]);
  set("tuner.featurize_s", thread_self("surrogate.predict"));
  set("tuner.step_self_s", thread_self("tuner.step"));
  set("tuner.steps", count("tuner.step"));
  if (telemetry != nullptr) {
    const auto counters = telemetry->counters();
    const auto counter = [&](const char* name) {
      const auto it = counters.find(name);
      return it == counters.end() ? 0.0 : double(it->second);
    };
    set("ml.fit_rounds", counter("gbt.rounds"));
    set("ml.predict_rows", counter("gbt.predict.rows"));
  }
  if (get("ml.predict_s") > 0.0) {
    set("ml.predict_rows_per_s", get("ml.predict_rows") / get("ml.predict_s"));
  }

  std::map<std::string, double> by_layer;
  for (const auto& [name, s] : split.self_by_name) by_layer[layer_of(name)] += s;
  for (const auto& [layer, s] : by_layer) set("self." + layer + "_s", s);
  set("unattributed_s", split.unattributed_s);

  std::ostringstream os;
  os << "self time by layer (wall split of the traced window, base "
     << split.window_s << " s):";
  report.note(os.str());
  for (const auto& [layer, s] : by_layer) {
    os.str("");
    os << "  " << std::left << std::setw(10) << layer << std::right
       << std::fixed << std::setprecision(4) << std::setw(10) << s << " s  "
       << std::setprecision(1) << std::setw(5)
       << (split.window_s > 0 ? 100.0 * s / split.window_s : 0.0) << "%";
    report.note(os.str());
  }
  os.str("");
  os << "  " << std::left << std::setw(10) << "(none)" << std::right
     << std::fixed << std::setprecision(4) << std::setw(10)
     << split.unattributed_s << " s  " << std::setprecision(1) << std::setw(5)
     << (split.window_s > 0 ? 100.0 * split.unattributed_s / split.window_s
                            : 0.0)
     << "%  unattributed_s";
  report.note(os.str());
}

void LayerMetrics::cpu_per_wall(Report& report, double cpu_s, double wall_s) {
  const auto cpus = static_cast<double>(cpu_count());
  set("core.cpu_per_wall", wall_s > 0.0 ? cpu_s / (wall_s * cpus) : 0.0);
  std::ostringstream os;
  os << "core.cpu_per_wall base: " << cpu_s << " CPU s / (" << wall_s
     << " s wall x " << cpus << " CPUs)";
  report.note(os.str());
}

void LayerMetrics::overhead(Report& report, double traced_s,
                            double untraced_s, const std::string& base) {
  set("trace_overhead_frac", untraced_s > 0.0 ? traced_s / untraced_s - 1.0
                                              : 0.0);
  std::ostringstream os;
  os << "trace_overhead_frac base: " << base << ", traced " << traced_s
     << " s / untraced " << untraced_s << " s - 1";
  report.note(os.str());
}

void LayerMetrics::emit(Report& report) {
  set("fail_frac", report.attempted() > 0 ? double(report.failed()) /
                                                double(report.attempted())
                                          : 0.0);
  for (const auto& [name, unit] : order_) report.metric(name, get(name), unit);
}

}  // namespace perfbench
