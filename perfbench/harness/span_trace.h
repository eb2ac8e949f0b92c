// Span collection for the traced run. The program's causal spans
// (core/telemetry.h) arrive as `span.end` trace events — through a sink
// attached to the run's Telemetry, or from the daemon's per-session
// JSONL trace files — and become SpanRecords for the wall split of
// harness/metric_math.h. Spans stay in memory until the run ends.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/telemetry.h"
#include "harness/metric_math.h"

namespace perfbench {

/// The span record of one `span.end` event (its JSON form); false when
/// the event is anything else.
bool span_from_event(const ceal::json::Value& event, SpanRecord& out);

/// Keeps every span.end event it receives as a SpanRecord.
class SpanSink final : public ceal::telemetry::TraceSink {
 public:
  void write(const ceal::telemetry::TraceEvent& event) override;

  /// The spans collected so far; call once the traced work finished.
  std::vector<SpanRecord> take();

 private:
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// Span records of every span.end line in a JSONL trace file.
std::vector<SpanRecord> read_trace_spans(const std::string& path);

/// Repository module a span belongs to (sim, config, ml, tuner,
/// measure, serve, core), by span name.
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
