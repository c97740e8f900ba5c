#include "metrics/timeline.hpp"

#include <stdexcept>

namespace dfly {

TimelineSampler::TimelineSampler(Engine& engine, const Network& network, SimTime interval)
    : engine_(engine), network_(network), interval_(interval) {
  if (interval <= 0) throw std::invalid_argument("timeline: interval must be positive");
}

void TimelineSampler::start() {
  if (started_) throw std::logic_error("timeline: start() called twice");
  started_ = true;
  engine_.schedule_after(0, this, EventPayload{1, 0, 0, 0});
}

void TimelineSampler::sample(SimTime now) {
  TimelineSample s;
  s.time = now;
  s.bytes_delivered = network_.bytes_delivered();
  s.messages_in_flight = network_.messages_in_flight();
  s.chunks_forwarded = network_.chunks_forwarded();
  for (const OutPort& port : network_.ports()) {
    switch (port.kind) {
      case PortKind::Terminal: s.queued_terminal += port.queued_bytes; break;
      case PortKind::LocalRow:
      case PortKind::LocalCol: s.queued_local += port.queued_bytes; break;
      case PortKind::Global: s.queued_global += port.queued_bytes; break;
    }
  }
  s.queued_bytes = s.queued_local + s.queued_global + s.queued_terminal;
  samples_.push_back(s);
}

void TimelineSampler::handle_event(SimTime now, const EventPayload& /*payload*/) {
  if (stopped_) return;
  sample(now);
  engine_.schedule_after(interval_, this, EventPayload{1, 0, 0, 0});
}

std::vector<double> TimelineSampler::throughput_gbps() const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const double bytes =
        static_cast<double>(samples_[i].bytes_delivered - samples_[i - 1].bytes_delivered);
    const double ns = static_cast<double>(samples_[i].time - samples_[i - 1].time);
    rates.push_back(ns > 0 ? bytes / ns : 0.0);  // bytes/ns == GB/s
  }
  return rates;
}

Table TimelineSampler::to_table(const std::string& title) const {
  Table t(title);
  t.set_columns({"time (ms)", "delivered (MB)", "throughput (GB/s)", "queued (MB)",
                 "queued local (MB)", "queued global (MB)", "queued terminal (MB)",
                 "msgs in flight"});
  if (samples_.empty()) return t;  // headers only: never started or never fired
  const std::vector<double> rates = throughput_gbps();
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const TimelineSample& s = samples_[i];
    t.add_row({Table::num(units::to_ms(s.time), 3), Table::num(units::to_mb(s.bytes_delivered), 2),
               Table::num(i > 0 ? rates[i - 1] : 0.0, 2), Table::num(units::to_mb(s.queued_bytes), 3),
               Table::num(units::to_mb(s.queued_local), 3),
               Table::num(units::to_mb(s.queued_global), 3),
               Table::num(units::to_mb(s.queued_terminal), 3),
               Table::num(static_cast<std::int64_t>(s.messages_in_flight))});
  }
  return t;
}

}  // namespace dfly
