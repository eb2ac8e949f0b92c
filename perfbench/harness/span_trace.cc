#include "harness/span_trace.h"

#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench {

bool span_from_event(const ceal::json::Value& event, SpanRecord& out) {
  const auto* name = event.find("event");
  if (name == nullptr || name->as_string() != "span.end") return false;
  const auto* timing = event.find("timing");
  if (timing == nullptr) return false;
  const double end = timing->at("ts_s").as_double();
  const double dur = timing->at("dur_s").as_double();
  out.name = event.at("span").as_string();
  out.id = std::strtoull(event.at("span_id").as_string().c_str(), nullptr, 16);
  out.parent = std::strtoull(event.at("parent_span_id").as_string().c_str(),
                             nullptr, 16);
  out.start = end - dur;
  out.end = end;
  return true;
}

void SpanSink::write(const ceal::telemetry::TraceEvent& event) {
  if (event.name() != "span.end") return;
  SpanRecord record;
  if (!span_from_event(event.to_json(), record)) return;
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanSink::take() {
  std::lock_guard lock(mutex_);
  return std::move(spans_);
}

std::vector<SpanRecord> read_trace_spans(const std::string& path) {
  std::vector<SpanRecord> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"span.end\"") == std::string::npos) continue;
    SpanRecord record;
    if (span_from_event(ceal::json::Value::parse(line), record)) {
      spans.push_back(std::move(record));
    }
  }
  return spans;
}

std::string layer_of(const std::string& span_name) {
  static const std::map<std::string, std::string> kLayer = {
      {"surrogate.fit", "ml"},         {"surrogate.predict", "ml"},
      {"components.fit", "ml"},        {"gbt.predict", "ml"},
      {"gbt.quantize", "ml"},          {"compiled.predict", "ml"},
      {"evaluate", "tuner"},           {"evaluate.replication", "tuner"},
      {"collector.measure", "tuner"},  {"low_fidelity.score", "tuner"},
      {"ceal.switch_detection", "tuner"}, {"geist.propagate", "tuner"},
      {"checkpoint.flush", "tuner"},   {"pool.task", "core"},
  };
  if (const auto it = kLayer.find(span_name); it != kLayer.end()) {
    return it->second;
  }
  // Harness spans and the remaining program spans are named
  // "<layer>.<call>".
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
