#include "obs/phase.hpp"

namespace rmt::obs {

namespace detail {

PhaseProfile*& current_profile() {
  thread_local PhaseProfile* p = nullptr;
  return p;
}

}  // namespace detail

Phase::Phase(const char* name)
    : name_(name), timed_(enabled()), traced_(trace::enabled()) {
  if (!timed_ && !traced_) return;
  if (traced_) {
    parent_ = trace::current();
    self_.trace_id = parent_.valid() ? parent_.trace_id : trace::next_id();
    self_.span_id = trace::next_id();
    trace::set_current(self_);
  }
  start_ns_ = trace::now_ns();
}

Phase::~Phase() {
  if (!timed_ && !traced_) return;
  const std::uint64_t end_ns = trace::now_ns();
  if (timed_) {
    const double us = double(end_ns - start_ns_) / 1000.0;
    Registry::global().histogram(std::string("phase.") + name_).observe(us);
    if (PhaseProfile* p = detail::current_profile()) p->record(name_, us);
  }
  if (traced_) {
    trace::set_current(parent_);
    trace::SpanRecord rec;
    rec.trace_id = self_.trace_id;
    rec.span_id = self_.span_id;
    rec.parent_span_id = parent_.valid() ? parent_.span_id : 0;
    rec.start_ns = start_ns_;
    rec.end_ns = end_ns;
    rec.set_name(name_);
    rec.set_kind("span");
    trace::Recorder::global().record(rec);
  }
}

}  // namespace rmt::obs
