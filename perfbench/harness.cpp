#include "harness.h"

#include <sched.h>
#include <time.h>

#include <chrono>

#include "support/check.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Timeline::Timeline(bool trace) : trace_(trace) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

void Timeline::maybe_move_cpu() {
  const double now = now_s();
  if (cpus_.size() < 2 || now - last_move_ < kCpuDwellSeconds) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &set);
  // Best effort: a refused move only leaves placement to the scheduler.
  sched_setaffinity(0, sizeof(set), &set);
  last_move_ = now;
}

void Timeline::begin(RoundLog& log, bool spans, const char* root) {
  STC_REQUIRE(log_ == nullptr);
  log_ = &log;
  spans_on_ = trace_ && spans;
  log.traced = spans_on_;
  stage_index_.clear();
  round_start_ = cpu_s();
  if (spans_on_) {
    round_span_ = static_cast<int>(spans_.size());
    spans_.push_back({root, round_start_, 0.0, -1, log.id});
    stack_.push_back(round_span_);
  }
}

void Timeline::end() {
  STC_REQUIRE(log_ != nullptr);
  const double end = cpu_s();
  log_->seconds = end - round_start_;
  if (spans_on_) {
    spans_[static_cast<std::size_t>(round_span_)].end = end;
    stack_.clear();
  }
  log_ = nullptr;
}

Timeline::Scope::Scope(Timeline& tl, const std::string& name, bool is_op)
    : tl_(tl), name_(name), is_op_(is_op) {
  STC_REQUIRE(tl_.log_ != nullptr);
  if (!is_op_) tl_.maybe_move_cpu();
  start_ = cpu_s();
  if (tl_.spans_on_) {
    span_ = static_cast<int>(tl_.spans_.size());
    tl_.spans_.push_back({name_, start_, 0.0, tl_.stack_.back(), tl_.log_->id});
    tl_.stack_.push_back(span_);
  }
}

Timeline::Scope::~Scope() {
  const double end = cpu_s();
  const double seconds = end - start_;
  if (span_ >= 0) {
    tl_.spans_[static_cast<std::size_t>(span_)].end = end;
    tl_.stack_.pop_back();
  }
  if (is_op_) {
    tl_.log_->ops.push_back(seconds);
    return;
  }
  auto& stages = tl_.log_->stages;
  const auto [it, added] = tl_.stage_index_.try_emplace(name_, stages.size());
  if (added) {
    stages.emplace_back(name_, seconds);
  } else {
    stages[it->second].second += seconds;
  }
}

}  // namespace perfbench
